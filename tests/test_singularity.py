import random
from fractions import Fraction

import pytest

from biquadric.bipoly import AffinePoly, parse
from biquadric.singularity import (
    CHART_VARS,
    FibreConic,
    HorizontalSection,
    chart_local,
    classify_local,
    classify_singularity,
    hessian_det,
    local_algebra_dim,
    singular_locus,
    tangent_cone,
)
from conftest import random_poly

ORIGIN = ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(0), Fraction(0)))


def affine(expr_terms):
    return AffinePoly(CHART_VARS, {k: Fraction(v) for k, v in expr_terms.items()})


def a_n_normal_form(n):
    # x^2 + y^2 + z^(n+1) in the chart variables
    return affine({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, n + 1): 1})


class TestIsSingularAt:
    """A point is singular iff the local equation in the chart at it has no
    constant and no linear part; tangent_cone raises otherwise."""

    def test_missing_transverse_term(self):
        # no y0*y2 term in the x0^2 row: the base point is singular
        f = parse("x0^2*(y1^2+y2^2+y1*y2) + x0*x1*(y0*y1+y0*y2) + x1^2*y0^2")
        assert not tangent_cone(f, ORIGIN).is_zero()

    def test_generic_point_smooth(self):
        f = parse("x0^2*(y0*y2+y1^2) + x1^2*(y0^2+y1^2+y2^2)")
        # passes through [1,0]x[1,0,0] with nonzero gradient
        with pytest.raises(ValueError, match="not singular"):
            tangent_cone(f, ORIGIN)

    def test_corner_double_point(self):
        P = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1), Fraction(0)))
        # locally the square of a product of two chart coordinates
        assert tangent_cone(parse("x0^2*y0^2"), P).is_zero()

    def test_point_must_lie_on_surface(self):
        with pytest.raises(ValueError, match="not on the surface"):
            tangent_cone(parse("x0^2*y0^2"), ORIGIN)


class TestSingularLocus:
    def test_diagonal_surface_points(self):
        locus = singular_locus(parse("x0^2*y0^2 + x0*x1*y1^2 + x1^2*y2^2"))
        pts = {
            (tuple(map(str, p1)), tuple(map(str, p2)))
            for ((p1, p2)) in (rec.point for rec in locus.isolated_points)
        }
        assert (("1", "0"), ("0", "0", "1")) in pts
        assert (("0", "1"), ("1", "0", "0")) in pts

    def test_singular_section_component(self):
        f = parse("x0^2*(y1^2+y2^2+y1*y2) + x0*x1*(y1^2+2*y2^2+y1*y2)"
                  " + x1^2*(3*y1^2+y2^2+y1*y2)")
        locus = singular_locus(f)
        sections = [c for c in locus.curve_components if isinstance(c, HorizontalSection)]
        assert any(tuple(map(str, c.p2)) == ("1", "0", "0") for c in sections)

    def test_reducible_intersection_curve(self):
        locus = singular_locus(parse("(x0*y2+x1*y1)*(x0*y1+x1*y0)"))
        assert locus.curve_components

    def test_smooth_surface(self):
        f = parse("x0^2*(y0^2+y1^2+y2^2) + x0*x1*(y0*y1+y1*y2)"
                  " + x1^2*(y0^2+2*y1^2+3*y2^2+y0*y2)")
        assert singular_locus(f).is_smooth

    def test_components_annihilate_gradient(self):
        f = parse("x0*x1*(y0*y2+y1^2)")
        locus = singular_locus(f)
        assert not locus.is_smooth
        assert all(isinstance(c, FibreConic) for c in locus.curve_components)


class TestTangentConeAndHessian:
    def test_generic_shape(self):
        f = parse("x0^2*(y1^2+y2^2+y1*y2) + x0*x1*y0*y2 + x1^2*y0^2")
        cone = tangent_cone(f, ORIGIN)
        assert cone == affine({(0, 2, 0): 1, (0, 0, 2): 1, (0, 1, 1): 1,
                               (1, 0, 1): 1, (2, 0, 0): 1})

    def test_pullback_cone_has_no_transverse_terms(self):
        f = parse("x0^2*(y1^2+y2^2+y1*y2) + x0*x1*(y1^2+y2^2+y1*y2)"
                  " + x1^2*(y0*y1+y0*y2+y1^2+y2^2+y1*y2)")
        cone = tangent_cone(f, ORIGIN)
        assert all(e[0] == 0 for e in cone.terms)

    def test_unit_hessian(self):
        assert hessian_det(affine({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})) == 8

    def test_reference_formula(self):
        # 8*a11*a22*c00 - 2*a11*b02^2 - 2*a12^2*c00 on the normalized cone
        # a11*y1^2 + a22*y2^2 + a12*y1*y2 + b02*x1*y2 + c00*x1^2
        def cone(a11, a22, a12, b02, c00):
            return affine({(0, 2, 0): a11, (0, 0, 2): a22, (0, 1, 1): a12,
                           (1, 0, 1): b02, (2, 0, 0): c00})
        assert hessian_det(cone(1, 1, 0, 0, 1)) == 8
        for vals in ((1, 2, 3, 4, 5), (2, -1, 1, 3, -2)):
            a11, a22, a12, b02, c00 = vals
            expected = 8 * a11 * a22 * c00 - 2 * a11 * b02 ** 2 - 2 * a12 ** 2 * c00
            assert hessian_det(cone(*vals)) == expected

    def test_rank_deficient(self):
        assert hessian_det(affine({(2, 0, 0): 1, (0, 2, 0): 1})) == 0


class TestLocalAlgebraDim:
    def test_node(self):
        assert local_algebra_dim(a_n_normal_form(1)).label == "Stabilized(1)"

    def test_cusp(self):
        assert local_algebra_dim(a_n_normal_form(2)).label == "Stabilized(2)"

    def test_non_isolated_cylinder(self):
        p = affine({(2, 0, 0): 1, (0, 2, 0): 1})
        assert local_algebra_dim(p).label == "NotStabilized"

    def test_requires_singular_origin(self):
        with pytest.raises(ValueError):
            local_algebra_dim(affine({(1, 0, 0): 1}))


class TestClassifyLocal:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_a_n_suite(self, n):
        assert classify_local(a_n_normal_form(n)).label == f"A{n}"

    def test_non_isolated(self):
        p = affine({(2, 0, 0): 1, (0, 2, 0): 1})
        assert classify_local(p).label == "NonIsolatedSuspected(10)"

    def test_frame_invariance(self):
        local = a_n_normal_form(3)
        sub = {
            "x1": AffinePoly(CHART_VARS, {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(2)}),
            "y1": AffinePoly(CHART_VARS, {(0, 1, 0): Fraction(1), (0, 0, 1): Fraction(-1)}),
            "y2": AffinePoly(CHART_VARS, {(0, 0, 1): Fraction(1)}),
        }
        assert classify_local(local.substitute(sub)).label == "A3"


def base_point_family(a11, a12, b11, b22, b02, b12, c00, c11, c22, c02, c12):
    """Irreducible stable family with a singular point at the base point."""
    return parse(
        f"x0^2*(({a11})*y1^2+({a12})*y1*y2)"
        f"+x0*x1*(({b11})*y1^2+({b22})*y2^2+({b02})*y0*y2+({b12})*y1*y2)"
        f"+x1^2*(({c00})*y0^2+({c11})*y1^2+({c22})*y2^2+({c02})*y0*y2+({c12})*y1*y2)"
    )


class TestCoefficientRegimes:
    """The four regimes of the singular family at P = [1,0]x[1,0,0], keyed by
    H = -2*a11*b02^2 - 2*a12^2*c00 and the higher-order degenerations."""

    def test_nonzero_hessian_gives_a1(self):
        f = base_point_family(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
        assert classify_singularity(f, ORIGIN).label == "A1"
        assert hessian_det(tangent_cone(f, ORIGIN)) == -4

    def test_vanishing_hessian_generic_gives_a2(self):
        f = base_point_family(1, 1, 1, 1, 1, 1, -1, 1, 1, 1, 1)
        assert hessian_det(tangent_cone(f, ORIGIN)) == 0
        assert classify_singularity(f, ORIGIN).label == "A2"
        assert local_algebra_dim(chart_local(f, ORIGIN)).label == "Stabilized(2)"

    def test_deeper_degeneration_gives_a3(self):
        f = base_point_family(1, 1, 2, 1, 1, 2, -1, 2, 1, -1, 1)
        assert hessian_det(tangent_cone(f, ORIGIN)) == 0
        assert classify_singularity(f, ORIGIN).label == "A3"
        assert local_algebra_dim(chart_local(f, ORIGIN)).label == "Stabilized(3)"

    def test_full_degeneration_non_isolated(self):
        f = base_point_family(1, 1, 2, 1, 1, 2, -1, 1, 0, -1, 1)
        assert hessian_det(tangent_cone(f, ORIGIN)) == 0
        assert classify_singularity(f, ORIGIN).label == "NonIsolatedSuspected(10)"
        assert local_algebra_dim(chart_local(f, ORIGIN)).label == "NotStabilized"

    def test_cutoff_below_two_rejected(self):
        local = chart_local(base_point_family(1, 1, 2, 1, 1, 2, -1, 2, 1, -1, 1), ORIGIN)
        for cutoff in (1, 0, -3):
            with pytest.raises(ValueError):
                local_algebra_dim(local, cutoff)
