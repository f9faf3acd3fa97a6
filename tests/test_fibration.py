import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from biquadric import classifier
from biquadric.bipoly import BiPoly, FrameChange, act, adjugate3, det3, moved_form, parse
from biquadric.factorizer import bihomogeneous_factor
from biquadric.fibration import (
    BinForm,
    PhiSigma,
    PhiSigmaKind,
    binform_gcd,
    conic_coefficients,
    conic_gram,
    congruence,
    conjugate,
    contracted_sections,
    discriminant,
    fibre_matrix,
    line_divides_conic,
    matrix_rank,
    normalize_projective,
    phi_sigma_constant,
    polar_rows,
    ramified_along,
    restrict_x,
    _y2_profile,
)
from biquadric.scalars import (
    NumberFieldElement,
    UniPoly,
    is_zero_scalar,
    scalar_inv,
    uv_gcd,
)
from biquadric.singularity import HorizontalSection, point_frame, singular_locus
from conftest import FIXTURES, MONOMIALS, random_poly, random_unimodular
from make_golden import CORPUS_PATH

SMOOTH = parse("x0^2*(y0^2+y1^2+y2^2) + x0*x1*(y0*y1+y1*y2) + x1^2*(y0^2+2*y1^2+3*y2^2+y0*y2)")
# irreducible, singular along the contracted section through [1, 0, 0]
SINGULAR_SECTION = parse("x0^2*(y1^2+y2^2+y1*y2) + x0*x1*(y1^2+2*y2^2+y1*y2)"
                         " + x1^2*(3*y1^2+y2^2+y1*y2)")


# Five sparse pool forms and one fuzz find whose contracted sections need
# two points over one irrational base root.
TOWER_FORMS = [
    "-x0^2*y0*y1 + x0^2*y2^2 - 2*x1^2*y0^2 - x1^2*y1^2",
    "x0^2*y0^2 - x0^2*y0*y1 + x0^2*y2^2 + x1^2*y1^2 + 2*x1^2*y2^2",
    "-2*x0^2*y1^2 - 2*x0^2*y2^2 + x1^2*y0^2 - 2*x1^2*y2^2",
    "x0^2*y0^2 - 2*x0^2*y1^2 - x1^2*y0*y1 + x1^2*y1^2 + 2*x1^2*y2^2",
    "x0^2*y0^2 + 2*x0^2*y1^2 - 2*x1^2*y0^2 - 2*x1^2*y0*y2 + 2*x1^2*y2^2",
    "-4*x0^2*y1^2 - 2*x0^2*y2^2 + 3*x1^2*y0^2 + 3*x1^2*y1^2",
]


def x_squares_family(rng):
    """x0^2 Q1 + x1^2 Q2, each conic coefficient kept with probability 1/2
    and drawn from [-5, 5]."""
    terms = {m: Fraction(rng.randint(-5, 5)) for m in MONOMIALS
             if m[1] != 1 and rng.random() < 0.5}
    return BiPoly((2, 2), {m: c for m, c in terms.items() if c} or {MONOMIALS[0]: Fraction(1)})


def poly_from_pencil(pencil):
    """Reassemble y^T M(x) y / 2 for the round-trip check."""
    y_units = [(0, 0) + tuple(int(j == k) for k in range(3)) for j in range(3)]
    acc = BiPoly((2, 2), {})
    for i in range(3):
        for j in range(3):
            e = pencil.entries[i][j]
            xpart = BiPoly((2, 0), {
                (2 - k, k, 0, 0, 0): c
                for k, c in enumerate(e.coeffs) if c
            })
            if xpart.is_zero():
                continue
            yi = BiPoly((0, 1), {y_units[i]: Fraction(1)})
            yj = BiPoly((0, 1), {y_units[j]: Fraction(1)})
            acc = acc + xpart * yi * yj
    return acc * Fraction(1, 2)


class TestFibreMatrix:
    def test_single_square_term(self):
        pencil = fibre_matrix(parse("x0^2*y0^2"))
        assert pencil.entries[0][0].coeffs == (Fraction(2), Fraction(0), Fraction(0))
        for i in range(3):
            for j in range(3):
                if (i, j) != (0, 0):
                    assert pencil.entries[i][j].is_zero()

    def test_round_trip(self):
        rng = random.Random(12)
        for _ in range(100):
            f = random_poly(rng, keep=0.6)
            assert poly_from_pencil(fibre_matrix(f)) == f

    def test_pencil_is_the_fibre_conics_gram(self):
        # One Gram convention: at every point the pencil is the doubled Gram
        # matrix of the fibre conic, at rational points and at the
        # number-field roots of the discriminant alike.
        rng = random.Random(19)
        irrational = 0
        for keep in (1.0, 0.35):
            for _ in range(15):
                f = random_poly(rng, keep=keep)
                pencil = fibre_matrix(f)
                points = [(0, 1), (1, 0)] + [
                    (rng.randint(-3, 3), Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
                    for _ in range(3)]
                disc = discriminant(pencil)
                if not disc.is_zero():
                    points += [p1 for p1, _mult in disc.roots()]
                for p1 in points:
                    assert pencil.evaluate(p1) == conic_gram(restrict_x(f, p1)), (f, p1)
                irrational += sum(isinstance(p1[1], NumberFieldElement) for p1 in points)
        assert irrational >= 10

    def test_integral_conics_have_integral_grams(self):
        rng = random.Random(20)
        for _ in range(50):
            for q in conic_coefficients(random_poly(rng, lo=-5, hi=5, keep=0.6)):
                assert all(type(c) is int for c in q.terms.values())
                assert all(type(c) is int for row in conic_gram(q) for c in row), q

    def test_no_section_variable_kills_row(self):
        f = parse("x0^2*(y1^2+y2^2+y1*y2) + x0*x1*(y1^2+y2^2) + x1^2*(y1^2+y2^2)")
        pencil = fibre_matrix(f)
        assert all(e.is_zero() for e in pencil.entries[0])
        assert all(row[0].is_zero() for row in pencil.entries)


class TestDiscriminant:
    def test_diagonal_example(self):
        disc = discriminant(fibre_matrix(parse("x0^2*y0^2 + x0*x1*y1^2 + x1^2*y2^2")))
        # proportional to x0^3 x1^3
        assert [i for i, c in enumerate(disc.coeffs) if c] == [3]

    def test_identically_zero_for_singular_pencil(self):
        f = parse("x0^2*(y1^2+y2^2+y1*y2) + x0*x1*(y1^2+y2^2) + x1^2*(y1^2+y2^2)")
        assert discriminant(fibre_matrix(f)).is_zero()

    def test_smooth_surface_squarefree_sextic(self):
        disc = discriminant(fibre_matrix(SMOOTH))
        assert disc.d == 6
        assert uv_gcd(disc.poly, disc.poly.derivative()).degree == 0

    def test_equivariance(self):
        rng = random.Random(14)
        g2 = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
        g = FrameChange(g2, FrameChange.identity().g3)
        for _ in range(10):
            f = random_poly(rng, keep=0.6)
            d1 = discriminant(fibre_matrix(act(g, f)))
            d2 = discriminant(fibre_matrix(f))
            # substitute x -> x . g2 into d2
            x0 = BinForm(1, (g2[0][0], g2[1][0]))
            x1 = BinForm(1, (g2[0][1], g2[1][1]))
            expected = _binform_substitute(d2, x0, x1)
            assert d1.coeffs == expected.coeffs


def _binform_substitute(form, x0, x1):
    total = BinForm(form.d, (0,) * (form.d + 1))
    for k, c in enumerate(form.coeffs):
        if not c:
            continue
        term = BinForm(0, (c,))
        for _ in range(form.d - k):
            term = _binform_mul(term, x0)
        for _ in range(k):
            term = _binform_mul(term, x1)
        total = _binform_add(total, term)
    return total


def _binform_mul(a, b):
    coeffs = [Fraction(0)] * (a.d + b.d + 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            coeffs[i + j] = coeffs[i + j] + ca * cb
    return BinForm(a.d + b.d, coeffs)


def _binform_add(a, b):
    assert a.d == b.d
    return BinForm(a.d, [x + y for x, y in zip(a.coeffs, b.coeffs)])


def conic_rank(f, p1):
    """The rank of the fibre conic over p1, read off f restricted to the
    fibre, not off the pencil."""
    return matrix_rank(conic_gram(restrict_x(f, p1)))


class TestClassifyFibre:
    def test_double_line(self):
        f = parse("x0^2*y2^2 + x0*x1*(y2^2+y0*y2+y1*y2)"
                  " + x1^2*(y0^2+y1^2+y2^2+y0*y1+y0*y2+y1*y2)")
        assert conic_rank(f, (1, 0)) == 1

    def test_two_lines(self):
        f = parse("x0^2*y1*y2 + x1^2*(y0^2+y1^2+y2^2)")
        assert conic_rank(f, (1, 0)) == 2

    def test_generic_fibre_smooth(self):
        assert conic_rank(SMOOTH, (1, 1)) == 3

    def test_discriminant_roots_exactly_locate_singular_fibres(self):
        disc = discriminant(fibre_matrix(SMOOTH))
        roots = {tuple(map(str, root)) for root, _ in disc.roots()}
        for root, _ in disc.roots():
            assert conic_rank(SMOOTH, root) < 3
        assert conic_rank(SMOOTH, (0, 1)) == 3 or \
            tuple(map(str, (0, 1))) in roots


class TestContractedSections:
    def test_single_point(self):
        f = parse("x0^2*(y1^2+y0*y2+y2^2+y1*y2) + x0*x1*(y1^2+y0*y2)"
                  " + x1^2*(y1^2+y0*y2+y1*y2)")
        assert [tuple(map(str, p)) for p in contracted_sections(fibre_matrix(f))] == [("1", "0", "0")]

    def test_smooth_surface_has_none(self):
        assert contracted_sections(fibre_matrix(SMOOTH)) == ()

    def test_tower_family(self):
        # f = x0^2 Q1 + x1^2 Q2 has the points of Q1 n Q2 as its contracted
        # sections.  In the first six forms two of them lie over one
        # irrational root of the projection from [0:0:1], which needed a
        # square root over that root's field; the projection from another
        # centre separates them.
        forms = [parse(text) for text in TOWER_FORMS]
        rng = random.Random(2009)
        forms += [x_squares_family(rng) for _ in range(30)]
        for f in forms:
            verdict = classifier.classify(f)
            if verdict.certificate is not None:
                assert verdict.certificate.verify(f)
            moved = act(random_unimodular(rng), f)
            assert classifier.classify(moved).stability is verdict.stability
            if len(bihomogeneous_factor(f)) > 1:
                continue
            points = contracted_sections(fibre_matrix(f))
            for p in points:
                assert all(is_zero_scalar(q.evaluate(p)) for q in conic_coefficients(f))
            for i, p in enumerate(points):
                assert not any(conjugate(p, q) for q in points[i + 1:])


class TestConicCoefficients:
    def test_lower_x_degree_keeps_zero_conics(self):
        f = BiPoly((1, 2), {(0, 1, 1, 1, 0): Fraction(2)})
        out = conic_coefficients(f)
        assert len(out) == 2 and out[0].is_zero()
        assert out[1].terms == {(1, 1, 0): 2}


class TestPhiSigma:
    def test_constant(self):
        f = parse("x0^2*(y1^2+y0*y2+y2^2+y1*y2) + x0*x1*(y1^2+y0*y2)"
                  " + x1^2*(y1^2+y0*y2+y1*y2)")
        ps = phi_sigma_constant(fibre_matrix(f), (1, 0, 0))
        assert ps.kind is PhiSigmaKind.CONSTANT
        # the common tangent line is Z(y2)
        assert [str(c) for c in ps.line[:2]] == ["0", "0"] and str(ps.line[2]) != "0"

    def test_undefined_on_singular_section(self):
        assert phi_sigma_constant(fibre_matrix(SINGULAR_SECTION), (1, 0, 0)).kind \
            is PhiSigmaKind.UNDEFINED

    def test_non_constant(self):
        f = parse("x0^2*(y1^2+y0*y2) + x0*x1*(y2^2+y0*y1)"
                  " + x1^2*(y1^2+y0*y2+y1*y2)")
        assert phi_sigma_constant(fibre_matrix(f), (1, 0, 0)).kind is PhiSigmaKind.NON_CONSTANT

    def test_requires_section_point(self):
        with pytest.raises(ValueError):
            phi_sigma_constant(fibre_matrix(SMOOTH), (1, 0, 0))


class TestRamifiedAlong:
    def test_double_fibre_in_branch_locus(self):
        f = parse("x0^2*y2^2 + x0*x1*(y2^2+y0*y2+y1*y2)"
                  " + x1^2*(y0^2+y1^2+y2^2+y0*y1+y0*y2+y1*y2)")
        assert ramified_along(fibre_matrix(f), (1, 0), (Fraction(0), Fraction(0), Fraction(1)))

    def test_transverse_component_not_ramified(self):
        f = parse("x0^2*y1*y2 + x0*x1*(y0^2+y1^2) + x1^2*(y0^2+y1^2+y2^2)")
        assert not ramified_along(fibre_matrix(f), (1, 0), (Fraction(0), Fraction(1), Fraction(0)))

    def test_divisible_derivative(self):
        # d f / d x1 at [1,0] is y2 * (y0 + y2): vanishes on Z(y2)
        f = parse("x0^2*(y1*y2+y2^2) + x0*x1*(y0*y2+y2^2) + x1^2*y0^2")
        assert ramified_along(fibre_matrix(f), (1, 0), (Fraction(0), Fraction(0), Fraction(1)))

    def test_containment_precondition(self):
        with pytest.raises(ValueError):
            ramified_along(fibre_matrix(SMOOTH), (1, 0), (Fraction(0), Fraction(0), Fraction(1)))


# Frame-move references: the same two questions answered by moving f so that
# the point becomes a coordinate point and reading coefficients there.


def moved_phi_sigma(f, p2):
    """Move p2 to [1, 0, 0]; the y0*y1 and y0*y2 coefficients of A, B and C
    are the polar rows (padded with a zero y0 column, where a polar row at
    [1, 0, 0] has its zero), and the line pulls back through the inverse
    frame."""
    g = point_frame(((Fraction(1), Fraction(0)), p2))
    rows = []
    for q in conic_coefficients(act(g, f)):
        if not is_zero_scalar(q.coefficient((2, 0, 0))):
            raise ValueError("p2 is not a contracted-section point")
        rows.append((0, q.coefficient((1, 1, 0)), q.coefficient((1, 0, 1))))
    rank = matrix_rank(rows)
    if rank == 0:
        return PhiSigma(PhiSigmaKind.UNDEFINED)
    if rank >= 2:
        return PhiSigma(PhiSigmaKind.NON_CONSTANT)
    _, u, v = next(r for r in rows if not all(is_zero_scalar(c) for c in r))
    d3 = det3(g.g3)
    g3inv = tuple(tuple(x * scalar_inv(d3) for x in row) for row in adjugate3(g.g3))
    line = tuple(g3inv[i][1] * u + g3inv[i][2] * v for i in range(3))
    return PhiSigma(PhiSigmaKind.CONSTANT, normalize_projective(line))


def moved_ramified_along(f, p1, line):
    """Move p1 to [1, 0]; the fibre is Z(A) and the transverse derivative is
    B, the coefficient of x0*x1."""
    g = point_frame((p1, (Fraction(1), Fraction(0), Fraction(0))))
    A, B, _C = conic_coefficients(act(g, f))
    if not line_divides_conic(line, conic_gram(A)):
        raise ValueError("the line is not contained in the fibre over p1")
    return line_divides_conic(line, conic_gram(B))


def five_partials_singular(f, p2):
    """All five partials of f vanish identically along P^1 x {p2}: with y
    set to p2, each is the zero binary form in x."""
    for var in ("x0", "x1", "y0", "y1", "y2"):
        coeffs = {}
        for m, c in f.partial(var).terms.items():
            for j in range(3):
                c = c * p2[j] ** m[2 + j]
            coeffs[m[:2]] = coeffs.get(m[:2], 0) + c
        if not all(is_zero_scalar(c) for c in coeffs.values()):
            return False
    return True


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def _section_forms(rng, count):
    """Sparse forms with no y0^2 term, so [1, 0, 0] is a contracted-section
    point, moved by random unimodular frames."""
    no_y0_squared = [m for m in MONOMIALS if m[2] < 2]
    out = []
    while len(out) < count:
        terms = {m: Fraction(rng.randint(-2, 2)) for m in no_y0_squared if rng.random() < 0.4}
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            out.append(act(random_unimodular(rng), BiPoly((2, 2), terms)))
    return out


class TestGradientsMatchFrameMoves:
    """ramified_along and phi_sigma_constant against their frame-move
    references on every argument the condition checks pass them (the
    references read the form under test, the checks its pencil), whether
    each point records a double line against the rank of its fibre conic,
    and the polar-row test for a singular contracted section against the
    five partials."""

    def test_condition_check_arguments(self, fixtures, monkeypatch):
        visits = {"ramified": [], "phi": []}
        under_test = {}

        def compared(new, reference, key):
            def wrapper(pencil, *args):
                f = under_test["f"]
                assert pencil == fibre_matrix(f)
                expected = _outcome(reference, f, *args)
                got = _outcome(new, pencil, *args)
                assert got == expected, args
                visits[key].append(got)
                if got is ValueError:
                    raise ValueError("reference raised too")
                return got
            return wrapper

        monkeypatch.setattr(classifier, "ramified_along",
                            compared(ramified_along, moved_ramified_along, "ramified"))
        monkeypatch.setattr(classifier, "phi_sigma_constant",
                            compared(phi_sigma_constant, moved_phi_sigma, "phi"))
        rng = random.Random(23)
        forms = [act(random_unimodular(rng), f) for f in fixtures.values() for _ in range(3)]
        forms += _section_forms(rng, 40) + [SINGULAR_SECTION]
        points = 0
        sections = []
        for f in forms:
            if len(bihomogeneous_factor(f)) >= 2:
                continue
            locus = singular_locus(f)
            under_test["f"] = f
            for rec in locus.isolated_points:
                assert conic_rank(f, rec.point[0]) == (2 if rec.fibre_line is None else 1)
                points += 1
            for p2 in locus.section_points:
                singular = matrix_rank(polar_rows(locus.pencil, p2)) == 0
                assert singular == five_partials_singular(f, p2), p2
                assert singular == (HorizontalSection(p2) in locus.curve_components), p2
                sections.append(singular)
            classifier.check_semistability_conditions(classifier._Checks(f), locus)
            try:
                classifier.check_stability_conditions(classifier._Checks(f), locus)
            except ValueError:
                pass  # a singular contracted section
        assert points >= 20
        assert True in sections and False in sections
        assert True in visits["ramified"] and False in visits["ramified"]
        kinds = {ps.kind for ps in visits["phi"] if ps is not ValueError}
        assert kinds == set(PhiSigmaKind)


# The routes the pencil replaced, kept as references: the fibre conic and its
# x-partials restricted from f, the y2-profile read off a conic's terms and
# the shear moved through the conic's terms.


def term_y2_profile(q):
    """A conic as a polynomial in y2, read off its terms: the coefficient of
    y2^2 and the forms in (y0, y1) that multiply y2 and 1."""
    by_deg = {0: {}, 1: {}, 2: {}}
    for e, c in q.terms.items():
        by_deg[e[2]][(e[0], e[1])] = c
    c2 = by_deg[2].get((0, 0), 0)
    c1 = BinForm(1, [by_deg[1].get((1, 0), 0), by_deg[1].get((0, 1), 0)])
    c0 = BinForm(2, [by_deg[0].get((2, 0), 0), by_deg[0].get((1, 1), 0), by_deg[0].get((0, 2), 0)])
    return c2, c1, c0


@lru_cache(maxsize=None)
def _pencil_corpus():
    """The irreducible golden inputs and the fixtures under two seeded
    frames each, with the points of P^1 they are read at: four rational
    points and the roots of the discriminant, many over number fields."""
    rng = random.Random("pencil-routes")
    forms = [parse(entry["text"]) for entry in json.loads(CORPUS_PATH.read_text())]
    forms += [act(random_unimodular(rng), parse(text)) for text in FIXTURES.values() for _ in range(2)]
    out = []
    for f in forms:
        if len(bihomogeneous_factor(f)) != 1:
            continue
        points = [(1, 0), (0, 1), (1, rng.randint(-3, 3)), (rng.randint(1, 3), Fraction(rng.randint(-4, 4), 3))]
        disc = discriminant(fibre_matrix(f))
        if not disc.is_zero():
            points += [p1 for p1, _mult in disc.roots()]
        out.append((f, tuple(points)))
    return tuple(out)


class TestPencilMatchesTheConicRoutes:
    """The pencil's Gram matrices against the routes through f's conics that
    they replaced."""

    def test_fibre_conic_and_x_partials(self):
        irrational = 0
        for f, points in _pencil_corpus():
            pencil = fibre_matrix(f)
            for p1 in points:
                assert pencil.evaluate(p1) == conic_gram(restrict_x(f, p1)), (f, p1)
                assert pencil.x_partials(p1) == tuple(
                    conic_gram(restrict_x(f.partial(v), p1)) for v in ("x0", "x1")), (f, p1)
                irrational += isinstance(p1[1], NumberFieldElement)
        assert len(_pencil_corpus()) >= 150 and irrational >= 100

    def test_profile_and_shear(self):
        shears = [((1, 0, 0), (0, 1, 0), (k, k * k, 1)) for k in range(13)]
        conics = 0
        for f, _points in _pencil_corpus():
            for q in conic_coefficients(f):
                if q.is_zero():
                    continue
                conics += 1
                for shear in shears:
                    moved = moved_form(shear, q)
                    g = congruence(conic_gram(q), shear)
                    assert g == conic_gram(moved), (q, shear)
                    assert _y2_profile(g) == tuple(2 * c for c in term_y2_profile(moved)), (q, shear)
        assert conics >= 400


class TestBinFormGcd:
    def test_common_root(self):
        a = BinForm(2, (Fraction(0), Fraction(1), Fraction(1)))  # x0 x1 + x0... t(1+t)
        b = BinForm(1, (Fraction(0), Fraction(1)))
        g = binform_gcd(a, b)
        assert g.d == 1

    def test_zero_absorbs(self):
        a = BinForm(2, (Fraction(1), Fraction(0), Fraction(1)))
        z = BinForm(2, (Fraction(0),) * 3)
        assert binform_gcd(a, z).coeffs == a.coeffs


class TestBinFormEvaluate:
    @staticmethod
    def dehomogenized_value(form, p):
        """The value through the affine chart: poly(p1 / p0) * p0^d."""
        p0, p1 = p
        if p0 == 0:
            return form.coeffs[form.d] * p1 ** form.d
        return form.poly.evaluate(p1 * scalar_inv(p0)) * p0 ** form.d

    def test_matches_dehomogenized_value(self):
        rng = random.Random(17)
        sqrt2 = NumberFieldElement((-2, 0, 1), (0, 1))
        cubic = NumberFieldElement((-2, 0, 0, 1), (1, 0, 1))
        for _ in range(60):
            d = rng.randint(0, 6)
            form = BinForm(d, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d + 1)])
            r = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 4))  # noqa: E731
            for p in [
                (r(), r()),
                (Fraction(0), r()),
                (sqrt2 * r() + r(), sqrt2 * r() + r()),
                (NumberFieldElement((-2, 0, 1), (1,)), sqrt2 * r() + r()),
                (cubic * r() + r(), cubic * cubic * r() + r()),
            ]:
                if p[0] == 0 and p[1] == 0:
                    continue
                assert form.evaluate(p) == self.dehomogenized_value(form, p)

    def test_root_at_infinity(self):
        form = BinForm(3, UniPoly([1, 2]))  # x0^3 + 2 x0^2 x1: root [0 : 1] twice
        assert form.evaluate((Fraction(0), Fraction(5))) == 0
        assert form.evaluate((Fraction(1), Fraction(5))) == 11
