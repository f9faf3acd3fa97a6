import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from biquadric.bipoly import (
    AffinePoly,
    BiPoly,
    FrameChange,
    ParseError,
    act,
    Y_VARS,
    adjugate3,
    all_monomials,
    coefficient_matrix,
    det2,
    det3,
    form_of_matrix,
    monomial_basis,
    moved_form,
    moved_terms,
    parse,
)
from biquadric.classifier import _random_rows
from biquadric.fibration import conic_coefficients
from biquadric.scalars import NumberFieldElement, scalar_inv
from biquadric.singularity import point_frame
import act_reference
from conftest import random_poly, random_unimodular, substitution_act

MONOS = list(all_monomials())


def inverse(g):
    """The frame whose action undoes the action of g: adjugates over
    determinants."""
    (a, b), (c, d) = g.g2
    i2, i3 = scalar_inv(det2(g.g2)), scalar_inv(det3(g.g3))
    g3 = tuple(tuple(x * i3 for x in row) for row in adjugate3(g.g3))
    return FrameChange(((d * i2, -b * i2), (-c * i2, a * i2)), g3)


poly_strategy = st.builds(
    lambda coeffs: BiPoly(
        (2, 2),
        {m: Fraction(c) for m, c in zip(MONOS, coeffs) if c} or {MONOS[0]: Fraction(1)},
    ),
    st.lists(st.integers(-4, 4), min_size=18, max_size=18),
)


class TestParse:
    def test_single_term(self):
        f = parse("x0^2*y0^2")
        assert f.bidegree == (2, 2)
        assert f.terms == {(2, 0, 2, 0, 0): Fraction(1)}

    def test_two_terms(self):
        f = parse("x0*x1*(y0*y2 + y1^2)")
        assert set(f.terms) == {(1, 1, 1, 0, 1), (1, 1, 0, 2, 0)}

    def test_rational_literals(self):
        f = parse("1/2*x0^2*y0^2 - 3/4*x1^2*y2^2")
        assert f.coefficient((2, 0, 2, 0, 0)) == Fraction(1, 2)
        assert f.coefficient((0, 2, 0, 0, 2)) == Fraction(-3, 4)

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse("x0^2*(y0")

    def test_inhomogeneous(self):
        with pytest.raises(ValueError):
            parse("x0^2*y0^2 + x0*y0")

    @pytest.mark.parametrize("text, expected", [
        ("x0^2*y0^2 + -1*x1^2*y1^2", "x0^2*y0^2 - x1^2*y1^2"),
        ("x0^2*y0^2 - -x1^2*y1^2", "x0^2*y0^2 + x1^2*y1^2"),
        ("x0^2*-y0^2", "-x0^2*y0^2"),
    ], ids=["after-plus", "after-minus", "after-times"])
    def test_unary_minus_after_binary_operator(self, text, expected):
        assert parse(text) == parse(expected)

    @pytest.mark.parametrize("text", ["3^30000000*x0^2*y0^2", "(3)^30000000*x0^2*y0^2",
                                      "2^15000*x0^2*y0^2", "(1/2)^15000*x0^2*y0^2"])
    def test_constant_power_beyond_the_digit_limit(self, text):
        # 2^15000 has 4516 digits, above the interpreter's default 4300
        with pytest.raises(ParseError, match=f"power at position {text.index('^') + 1} "):
            parse(text)

    @pytest.mark.parametrize("text", ["2^14000*x0^2*y0^2", "1^99999999999*x0^2*y0^2",
                                      "(-1)^99999999999*x0^2*y0^2", "(x0*y0)^2"])
    def test_constant_power_within_the_digit_limit(self, text):
        assert parse(text).bidegree == (2, 2)

    @pytest.mark.parametrize("text", ["2^14000*2^14000*x0^2*y0^2", "(2^14000*x0^2)*(2^14000*y0^2)",
                                      "(2^14000*x0*y0 + x1*y1)^2"])
    def test_coefficient_beyond_the_digit_limit(self, text):
        # each 2^14000 has 4215 digits, within the default 4300; the product 8429
        with pytest.raises(ParseError, match="a coefficient has more than"):
            parse(text)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # no limit, no bound
        try:
            assert parse(text).bidegree == (2, 2)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_round_trip_corpus(self):
        rng = random.Random(5)
        for _ in range(100):
            f = random_poly(rng, keep=0.6)
            assert parse(repr(f)) == f


class TestAct:
    def test_identity(self):
        f = parse("x0^2*(y1^2+y0*y2) + x1^2*y2^2")
        assert act(FrameChange.identity(), f) == f

    def test_swap(self):
        g = FrameChange(((0, 1), (1, 0)), FrameChange.identity().g3)
        assert act(g, parse("x0^2*y0^2")) == parse("x1^2*y0^2")

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            FrameChange(((1, 1), (1, 1)), FrameChange.identity().g3)

    def test_multiplicative(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_unimodular(rng)
            f1 = random_poly(rng, keep=0.4)
            f2 = random_poly(rng, keep=0.4)
            assert act(g, f1 * f2) == act(g, f1) * act(g, f2)

    @settings(max_examples=40, deadline=None)
    @given(poly_strategy, st.integers(0, 10 ** 6))
    def test_inverse_round_trip(self, f, seed):
        g = random_unimodular(random.Random(seed))
        assert act(inverse(g), act(g, f)) == f

    def test_matches_substitution_under_integer_frames(self):
        rng = random.Random(13)
        for _ in range(30):
            f = random_poly(rng)
            g = random_unimodular(rng)
            h = FrameChange(_random_rows(rng, 2), _random_rows(rng, 3))
            assert act(g, f) == substitution_act(g, f)
            assert act(h, f) == substitution_act(h, f)

    def test_matches_substitution_under_number_field_frames(self):
        rng = random.Random(17)
        sqrt2 = NumberFieldElement((-2, 0, 1), (0, 1))
        for _ in range(10):
            p1 = (Fraction(rng.randint(-3, 3)) + sqrt2 * rng.randint(1, 3), Fraction(1))
            p2 = (Fraction(1), sqrt2 * rng.randint(-2, 2), Fraction(rng.randint(-2, 2)) + sqrt2)
            g = point_frame((p1, p2))
            f = random_poly(rng)
            assert act(g, f) == substitution_act(g, f)

    @pytest.mark.parametrize("bidegree", [(1, 1), (1, 2), (2, 1)], ids=["1-1", "1-2", "2-1"])
    def test_matches_substitution_in_other_bidegrees(self, bidegree):
        rng = random.Random(19)
        monos = all_monomials(bidegree)
        for _ in range(10):
            f = BiPoly(bidegree, {m: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for m in monos})
            g = random_unimodular(rng)
            assert act(g, f) == substitution_act(g, f)


class TestKernelReference:
    """moved_terms, the symmetric-power product, against the dict-accumulating
    move it replaced (tests/act_reference.py): equal terms, each of the same
    scalar type."""

    @staticmethod
    def _typed(terms):
        return {m: (type(c), c) for m, c in terms.items()}

    @pytest.mark.parametrize("field", ["integer", "fraction", "number-field"])
    def test_matches_reference_in_every_bidegree(self, field):
        rng = random.Random(f"kernel/{field}")
        sqrt2 = NumberFieldElement((-2, 0, 1), (0, 1))
        entry = {"integer": lambda: rng.randint(-3, 3),
                 "fraction": lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                 "number-field": lambda: rng.randint(-2, 2) + sqrt2 * rng.randint(-1, 1)}[field]
        for d1 in range(5):
            for d2 in range(5):
                for keep in (0.3, 1.0):  # sparse and dense forms
                    terms = {m: rng.choice((-1, 1)) * rng.randint(1, 9)
                             for m in all_monomials((d1, d2)) if rng.random() < keep}
                    g2, g3 = ([[entry() for _ in range(n)] for _ in range(n)] for n in (2, 3))
                    assert self._typed(moved_terms(g2, g3, terms)) == \
                        self._typed(act_reference.moved_terms(g2, g3, terms))

    def test_moved_form_matches_reference(self):
        rng = random.Random("kernel/form")
        for _ in range(40):
            poly = AffinePoly(("w", "u", "v"), {
                (a, b, c): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for a in range(5) for b in range(5 - a) for c in range(5 - a - b) if rng.random() < 0.4})
            g = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)] for _ in range(3)]
            moved = moved_form(g, poly)
            assert moved.vars == poly.vars
            assert self._typed(moved.terms) == self._typed(act_reference.moved_form(g, poly).terms)


class TestCoefficientMatrix:
    """The one coefficient layout: row a of a form's matrix holds the
    coefficients of the y-monomials that multiply the a-th x-monomial, in
    ``monomial_basis`` order."""

    @staticmethod
    def _forms(field):
        """Seeded sparse and dense forms in every bidegree (d1, d2), d1, d2 <= 4."""
        rng = random.Random(f"layout/{field}")
        sqrt2 = NumberFieldElement((-2, 0, 1), (0, 1))
        entry = {"integer": lambda: rng.choice((-1, 1)) * rng.randint(1, 9),
                 "fraction": lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 5)),
                 "number-field": lambda: rng.randint(-2, 2) + sqrt2 * rng.choice((-1, 1))}[field]
        for d1 in range(5):
            for d2 in range(5):
                for keep in (0.3, 1.0):
                    yield BiPoly((d1, d2), {m: entry() for m in all_monomials((d1, d2)) if rng.random() < keep})

    @pytest.mark.parametrize("field", ["integer", "fraction", "number-field"])
    def test_round_trip_in_every_bidegree(self, field):
        for f in self._forms(field):
            (xs, _), (ys, _) = monomial_basis(2, f.bidegree[0]), monomial_basis(3, f.bidegree[1])
            matrix = coefficient_matrix(f)
            assert [len(row) for row in matrix] == [len(ys)] * len(xs)
            assert all(matrix[a][b] == f.coefficient(x + y)
                       for a, x in enumerate(xs) for b, y in enumerate(ys))
            assert form_of_matrix(f.bidegree, matrix) == f

    @pytest.mark.parametrize("field", ["integer", "fraction", "number-field"])
    def test_conic_coefficients_are_the_rows(self, field):
        # the sparse reader indexes by the same positions as the matrix
        ys = monomial_basis(3, 2)[0]
        for f in self._forms(field):
            if f.bidegree[1] == 2:
                assert conic_coefficients(f) == tuple(
                    AffinePoly(Y_VARS, dict(zip(ys, row))) for row in coefficient_matrix(f))

    def test_positions(self):
        f = parse("2*x0*x1*y0*y2 - x1^2*y1^2")
        assert coefficient_matrix(f) == ((0,) * 6, (0, 0, 2, 0, 0, 0), (0, 0, 0, -1, 0, 0))
        assert form_of_matrix((1, 1), [(1, 2, 3), (0, 0, -1)]) == parse("x0*(y0 + 2*y1 + 3*y2) - x1*y2")

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="2 x 3 matrix"):
            form_of_matrix((1, 1), [(1, 2, 3)])
        with pytest.raises(ValueError, match="2 x 3 matrix"):
            form_of_matrix((1, 1), [(1, 2), (3, 4)])


class TestPartial:
    def test_simple(self):
        assert parse("x0^2*y0^2").partial("x0") == BiPoly(
            (1, 2), {(1, 0, 2, 0, 0): Fraction(2)}
        )

    def test_euler_relations(self):
        rng = random.Random(3)
        for _ in range(100):
            f = random_poly(rng, keep=0.5)
            ex = sum(
                (f.partial(v) * BiPoly((1, 0), {_xmon(i): Fraction(1)})
                 for i, v in enumerate(("x0", "x1"))),
                BiPoly((2, 2), {}),
            )
            ey = sum(
                (f.partial(v) * BiPoly((0, 1), {_ymon(j): Fraction(1)})
                 for j, v in enumerate(("y0", "y1", "y2"))),
                BiPoly((2, 2), {}),
            )
            assert ex == f * 2 and ey == f * 2


def _xmon(i):
    return tuple(int(i == k) for k in range(2)) + (0, 0, 0)


def _ymon(j):
    return (0, 0) + tuple(int(j == k) for k in range(3))


class TestCharts:
    def test_constant_chart(self):
        p = parse("x0^2*y0^2").dehomogenize()
        assert p.total_degree() == 0 and p.evaluate((0, 0, 0)) == 1

    def test_generic_degree_two_part(self):
        f = parse(
            "x0^2*(y1^2 + y2^2 + y1*y2 + y0*y2) + x0*x1*(y0*y2 + y0^2)"
            " + x1^2*y0^2"
        )
        p = f.dehomogenize()
        d2 = p.degree_part(2)
        expected = parse(
            "x0^2*(y1^2 + y2^2 + y1*y2) + x0*x1*y0*y2 + x1^2*y0^2"
        ).dehomogenize().degree_part(2)
        assert d2 == expected

    def test_chart_expansion_agrees_with_evaluation(self):
        rng = random.Random(9)
        for _ in range(50):
            f = random_poly(rng, keep=0.5)
            x1, y1, y2 = (Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
            p = f.dehomogenize()
            assert p.vars == ("x1", "y1", "y2")
            assert p.evaluate((x1, y1, y2)) == f.evaluate((1, x1), (1, y1, y2))


class TestDegreePart:
    def test_homogeneous_input_is_fixed(self):
        q = parse("x0^2*y0^2").dehomogenize()
        assert q.degree_part(0) == q

    def test_picks_exact_degree(self):
        p = parse("x0*x1*(y0*y2+y1^2)").dehomogenize()
        # chart (x0=1, y0=1): x1*y2 has degree 2, x1*y1^2 degree 3
        assert set(p.degree_part(2).terms) == {(1, 0, 1)}
        assert set(p.degree_part(3).terms) == {(1, 2, 0)}

    @settings(max_examples=30, deadline=None)
    @given(poly_strategy)
    def test_partition_identity(self, f):
        p = f.dehomogenize()
        total = None
        for d in range(0, p.total_degree() + 1):
            piece = p.degree_part(d)
            total = piece if total is None else total + piece
        assert total == p


class TestCanonical:
    @settings(max_examples=30, deadline=None)
    @given(poly_strategy, poly_strategy)
    def test_no_zero_coefficients(self, f, g):
        for result in (f + g, f - g, f * Fraction(2), f - f):
            for c in result.terms.values():
                assert c != 0
