import random
from fractions import Fraction

import pytest

from biquadric.bipoly import AffinePoly, BiPoly, act, is_scalar_multiple, parse
from biquadric.factorizer import (
    bihomogeneous_factor,
    poly_sqrt,
    product_of_factors,
)
from biquadric.scalars import NumberFieldElement
from conftest import random_poly, random_unimodular

IRREDUCIBLE = parse(
    "x0^2*(y0^2+y1^2+y2^2) + x0*x1*(y0*y1+y1*y2)"
    " + x1^2*(y0^2+2*y1^2+3*y2^2+y0*y2)"
)


def bidegrees(factors):
    return sorted(bd for bd, _ in factors)


class TestExamples:
    def test_two_fibres_times_conic(self):
        factors = bihomogeneous_factor(parse("x0*x1*(y0*y2+y1^2)"))
        assert bidegrees(factors) == [(0, 2), (1, 0), (1, 0)]

    def test_two_bilinear_pieces(self):
        factors = bihomogeneous_factor(parse("(x0*y2+x1*y1)*(x0*y1+x1*y0)"))
        assert bidegrees(factors) == [(1, 1), (1, 1)]

    def test_generic_is_irreducible(self):
        factors = bihomogeneous_factor(IRREDUCIBLE)
        assert bidegrees(factors) == [(2, 2)]
        assert is_scalar_multiple(factors[0][1], IRREDUCIBLE)

    def test_repeated_factor_multiplicity(self):
        factors = bihomogeneous_factor(parse("(x0*y2+x1*y1)^2"))
        assert bidegrees(factors) == [(1, 1), (1, 1)]
        assert is_scalar_multiple(factors[0][1], factors[1][1])

    def test_double_fibre_and_double_line(self):
        factors = bihomogeneous_factor(parse("x0^2*y2^2"))
        assert bidegrees(factors) == [(0, 1), (0, 1), (1, 0), (1, 0)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            bihomogeneous_factor(BiPoly((2, 2), {}))


class TestQuadraticExtensions:
    def test_conjugate_fibre_pair(self):
        # x0^2 + x1^2 has no rational roots: the two fibres are conjugate
        f = parse("(x0^2+x1^2)*(y0*y2+y1^2)")
        factors = bihomogeneous_factor(f)
        assert bidegrees(factors) == [(0, 2), (1, 0), (1, 0)]
        lines = [p for bd, p in factors if bd == (1, 0)]
        assert any(
            isinstance(c, NumberFieldElement)
            for p in lines for c in p.terms.values()
        )

    def test_conjugate_line_pair_in_conic(self):
        # y1^2 + y2^2 is a rank-2 conic: two conjugate lines
        factors = bihomogeneous_factor(parse("(x0^2+x0*x1+x1^2)*(y1^2+y2^2)"))
        assert bidegrees(factors) == [(0, 1), (0, 1), (1, 0), (1, 0)]

    def test_rank3_conic_stays_whole(self):
        factors = bihomogeneous_factor(parse("x0*x1*(y0*y2+y1^2)"))
        conic = next(p for bd, p in factors if bd == (0, 2))
        assert all(not isinstance(c, NumberFieldElement)
                   for c in conic.terms.values())

    def test_conjugate_22_pair(self):
        # (x0 y2 + x1 y1)^2 + (x0 y1 + x1 y0)^2 over the rationals is
        # irreducible but splits into two conjugate (1,1) forms
        f = parse("(x0*y2+x1*y1)^2 + (x0*y1+x1*y0)^2")
        factors = bihomogeneous_factor(f)
        assert bidegrees(factors) == [(1, 1), (1, 1)]
        assert is_scalar_multiple(product_of_factors(factors), f)


class TestProductRoundTrip:
    def test_random_products_recover(self):
        rng = random.Random(31)
        for _ in range(40):
            f = random_poly(rng, keep=0.5)
            factors = bihomogeneous_factor(f)
            assert is_scalar_multiple(product_of_factors(factors), f)

    def test_structured_products_recover(self):
        for text in [
            "x0*x1*(y0*y2+y1^2)",
            "(x0*y2+x1*y1)*(x0*y1+x1*y0)",
            "(x0^2+x1^2)*(y0*y2+y1^2)",
            "(x0^2+x0*x1+x1^2)*(y1^2+y2^2)",
            "x1^2*(y0*y1+y2^2)",
            "(x0*y2+x1*y1)^2",
        ]:
            f = parse(text)
            factors = bihomogeneous_factor(f)
            assert is_scalar_multiple(product_of_factors(factors), f)


class TestFrameInvariance:
    def test_factor_shape_preserved(self):
        rng = random.Random(37)
        for text in [
            "x0*x1*(y0*y2+y1^2)",
            "(x0*y2+x1*y1)*(x0*y1+x1*y0)",
            "(x0^2+x1^2)*(y0*y2+y1^2)",
        ]:
            f = parse(text)
            shape = bidegrees(bihomogeneous_factor(f))
            for _ in range(5):
                g = random_unimodular(rng)
                assert bidegrees(bihomogeneous_factor(act(g, f))) == shape

    def test_irreducible_stays_irreducible(self):
        rng = random.Random(41)
        for _ in range(5):
            g = random_unimodular(rng)
            assert bidegrees(bihomogeneous_factor(act(g, IRREDUCIBLE))) == [(2, 2)]


class TestPolySqrt:
    def test_perfect_square(self):
        t = ("t",)
        delta = AffinePoly(t, {(2,): Fraction(1), (1,): Fraction(2), (0,): Fraction(1)})
        s = poly_sqrt(delta)
        assert s is not None and s * s == delta

    def test_not_a_square(self):
        t = ("t",)
        delta = AffinePoly(t, {(1,): Fraction(1)})
        assert poly_sqrt(delta) is None

    def test_square_with_irrational_scale(self):
        t = ("t",)
        delta = AffinePoly(t, {(2,): Fraction(2)})
        s = poly_sqrt(delta)
        assert s is not None and s * s == delta
        assert isinstance(s.terms[(1,)], NumberFieldElement)

    def test_zero(self):
        s = poly_sqrt(AffinePoly(("t",)))
        assert s is not None and s.is_zero()


class TestIsScalarMultiple:
    def test_accepts_rational_scale(self):
        assert is_scalar_multiple(IRREDUCIBLE * Fraction(-7, 5), IRREDUCIBLE)

    def test_rejects_different_support(self):
        assert not is_scalar_multiple(parse("x0^2*y0^2"), parse("x1^2*y0^2"))

    def test_rejects_mismatched_ratio(self):
        f = parse("x0^2*y0^2 + x1^2*y2^2")
        g = parse("x0^2*y0^2 + 2*x1^2*y2^2")
        assert not is_scalar_multiple(f, g)
