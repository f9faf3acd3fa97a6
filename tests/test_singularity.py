import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce

import pytest

from biquadric import singularity
from biquadric.bipoly import AffinePoly, act, adjugate3, det3, parse
from biquadric.classifier import classify
from biquadric.factorizer import bihomogeneous_factor
from biquadric.fibration import (
    BinForm,
    binform_gcd,
    conic_gram,
    conjugate,
    contracted_sections,
    discriminant,
    fibre_matrix,
    matrix_rank,
    normalize_projective,
    polar_rows,
)
from biquadric.scalars import NumberFieldElement, is_zero_scalar
from biquadric.singularity import (
    CHART_VARS,
    FibreConic,
    FibreLine,
    HorizontalSection,
    PlaneCurveImage,
    SingularLocus,
    SingularPointRecord,
    chart_local,
    classify_local,
    local_algebra_dim,
    singular_locus,
)
import act_reference
from conftest import FIXTURES, pool_forms, random_poly, random_unimodular
from make_golden import CORPUS_PATH

ORIGIN = ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(0), Fraction(0)))


def affine(expr_terms):
    return AffinePoly(CHART_VARS, {k: Fraction(v) for k, v in expr_terms.items()})


def a_n_normal_form(n):
    # x^2 + y^2 + z^(n+1) in the chart variables
    return affine({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, n + 1): 1})


class TestIsSingularAt:
    """A point is singular iff the local equation in the chart at it has no
    constant and no linear part."""

    def test_missing_transverse_term(self):
        # no y0*y2 term in the x0^2 row: the base point is singular
        f = parse("x0^2*(y1^2+y2^2+y1*y2) + x0*x1*(y0*y1+y0*y2) + x1^2*y0^2")
        local = chart_local(f, ORIGIN)
        assert local.degree_part(0).is_zero() and local.degree_part(1).is_zero()
        assert not local.degree_part(2).is_zero()

    def test_generic_point_smooth(self):
        f = parse("x0^2*(y0*y2+y1^2) + x1^2*(y0^2+y1^2+y2^2)")
        # passes through [1,0]x[1,0,0] with nonzero gradient
        local = chart_local(f, ORIGIN)
        assert local.degree_part(0).is_zero() and not local.degree_part(1).is_zero()

    def test_corner_double_point(self):
        P = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1), Fraction(0)))
        # locally the square of a product of two chart coordinates
        local = chart_local(parse("x0^2*y0^2"), P)
        assert all(local.degree_part(d).is_zero() for d in range(3))

    def test_point_must_lie_on_surface(self):
        assert not chart_local(parse("x0^2*y0^2"), ORIGIN).degree_part(0).is_zero()


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


# ---------------------------------------------------------------------------
# Identically singular pencils: the adjugate-section route as the reference


def _divide(a: BinForm, g: BinForm) -> BinForm:
    q, r = a.poly.divmod(g.poly)
    assert r.is_zero() and a.d - a.poly.degree >= g.d - g.poly.degree
    return BinForm(a.d - g.d, q)


def _vertex_section(pencil):
    """The fibre vertex x -> ker M(x): an adjugate column, content removed."""
    column = next(col for col in zip(*adjugate3(pencil.entries)) if any(col))
    content = reduce(binform_gcd, [b for b in column if b])
    return tuple(_divide(b, content) if b else BinForm(b.d - content.d) for b in column)


def _substitute_section(fx, column) -> BinForm:
    """Substitute y -> column(x) into a form of bidegree (1, 2)."""
    acc = BinForm(fx.bidegree[0] + 2 * column[0].d)
    for m, c in fx.terms.items():
        term = BinForm(fx.bidegree[0], [0] * m[1] + [c] + [0] * (fx.bidegree[0] - m[1]))
        for j in range(3):
            for _ in range(m[2 + j]):
                term = term * column[j]
        acc = acc + term
    return acc


def _section_constant(column) -> bool:
    """True iff every 2x2 Wronskian minor of the section vanishes."""
    return all(
        (column[i].poly * column[j].poly.derivative()
         - column[j].poly * column[i].poly.derivative()).is_zero()
        for i in range(3) for j in range(i + 1, 3)
    )


def _section_value_anywhere(column):
    for x in ((1, 0), (0, 1), (1, 1), (1, 2)):
        value = tuple(b.evaluate((Fraction(x[0]), Fraction(x[1]))) for b in column)
        if any(not is_zero_scalar(c) for c in value):
            return normalize_projective(value)
    raise AssertionError("zero section")


def _on_component(P, comp) -> bool:
    p1, p2 = (normalize_projective(p) for p in P)
    try:
        if isinstance(comp, HorizontalSection):
            return p2 == normalize_projective(comp.p2)
        if isinstance(comp, FibreLine):
            return p1 == normalize_projective(comp.p1) and is_zero_scalar(
                sum((comp.line[i] * p2[i] for i in range(3)), Fraction(0)))
    except ValueError:  # coordinates over unrelated number fields
        return False
    return False


def adjugate_section_locus(f):
    """The singular locus of an irreducible f with det M(x) = 0, found by
    substituting the vertex section into f_x0 and f_x1: a curve of singular
    points where both vanish identically.  Also returns the two substituted
    partials."""
    pencil = fibre_matrix(f)
    column = _vertex_section(pencil)
    fx0, fx1 = f.partial("x0"), f.partial("x1")
    partials = (_substitute_section(fx0, column), _substitute_section(fx1, column))
    if _section_constant(column):
        components = [HorizontalSection(_section_value_anywhere(column))]
    else:
        components = [PlaneCurveImage("image of the fibre-vertex section x -> ker M(x)")]
    points = []
    entries = [b for row in adjugate3(pencil.entries) for b in row if b]
    entry_gcd = reduce(binform_gcd, entries)
    for p1pt, _mult in (entry_gcd.roots() if entry_gcd.d >= 1 else []):
        pts, comps = singularity._fibre_singularities(pencil, p1pt)
        points += pts
        components += comps
    sections = contracted_sections(pencil)
    components += [HorizontalSection(p2) for p2 in sections
                   if matrix_rank(polar_rows(pencil, p2)) == 0]
    unique_components = []
    for comp in components:
        if comp not in unique_components:
            unique_components.append(comp)
    unique_points = {}
    for P, line in points:
        P = (normalize_projective(P[0]), normalize_projective(P[1]))
        if P not in unique_points and not any(_on_component(P, c) for c in unique_components):
            unique_points[P] = line
    records = tuple(SingularPointRecord(P, chart_local(f, P), line)
                    for P, line in unique_points.items())
    return SingularLocus(records, tuple(unique_components), sections, pencil), partials


def _fixed_vertex_form(rng):
    """Conics in y0, y1 only: every fibre is singular at [0, 0, 1]."""
    return parse(" + ".join(
        f"({rng.randint(-3, 3)})*{x}*{y}"
        for x in ("x0^2", "x0*x1", "x1^2") for y in ("y0^2", "y0*y1", "y1^2")))


def _moving_vertex_form(rng):
    """a P^2 + b(x) P R + c(x) R^2 with P of bidegree (1, 1) and R a y-line."""
    def form(monomials):
        return " + ".join(f"({rng.randint(-2, 2)})*{m}" for m in monomials)

    P = form([f"{x}*{y}" for x in ("x0", "x1") for y in ("y0", "y1", "y2")])
    R = form(["y0", "y1", "y2"])
    b = form(["x0", "x1"])
    c = form(["x0^2", "x0*x1", "x1^2"])
    return parse(f"{rng.choice((-2, -1, 1, 2))}*({P})^2 + ({b})*({P})*({R}) + ({c})*({R})^2")


class TestIdenticallySingularPencil:
    """det M(x) = 0: the vertex curve by the kernel of A, B and C agrees with
    the adjugate-section route, on forms in two families and under frames."""

    @pytest.mark.parametrize("family, expected", [
        (_fixed_vertex_form, HorizontalSection),
        (_moving_vertex_form, PlaneCurveImage),
    ])
    def test_matches_adjugate_section_route(self, family, expected):
        rng = random.Random(f"degenerate/{family.__name__}")
        seen = set()
        forms = 0
        while forms < 6:
            f = family(rng)
            if f.is_zero() or len(bihomogeneous_factor(f)) != 1:
                continue
            forms += 1
            for g in (f, act(random_unimodular(rng), f), act(random_unimodular(rng), f)):
                assert discriminant(fibre_matrix(g)).is_zero()
                locus = singular_locus(g)
                reference, partials = adjugate_section_locus(g)
                # the lemma: every x-derivative vanishes along the vertex section
                assert all(p.is_zero() for p in partials)
                assert locus.curve_components == reference.curve_components
                assert [(r.point, classify_local(r.local, 3).label) for r in locus.isolated_points] == \
                    [(r.point, classify_local(r.local, 3).label) for r in reference.isolated_points]
                seen.update(type(c) for c in locus.curve_components)
        assert expected in seen

    def test_classify_runs_no_local_classification(self, monkeypatch):
        # A verdict reads only the cone rank, so the points on the vertex
        # curve, whose local algebra never stabilizes, cost no elimination.
        calls = Counter()
        for name in ("local_algebra_dim", "_splitting_type"):
            def counted(*args, _name=name, _original=getattr(singularity, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(singularity, name, counted)
        rng = random.Random("degenerate/classify")
        while True:
            f = _moving_vertex_form(rng)
            if not f.is_zero() and len(bihomogeneous_factor(f)) == 1 and any(
                    not r.is_a1 for r in singular_locus(f).isolated_points):
                break
        verdict = classify(f)
        assert calls == Counter()
        assert verdict.certificate is not None and verdict.certificate.verify(f)


class TestTangentConeAndHessian:
    def test_generic_shape(self):
        f = parse("x0^2*(y1^2+y2^2+y1*y2) + x0*x1*y0*y2 + x1^2*y0^2")
        cone = chart_local(f, ORIGIN).degree_part(2)
        assert cone == affine({(0, 2, 0): 1, (0, 0, 2): 1, (0, 1, 1): 1,
                               (1, 0, 1): 1, (2, 0, 0): 1})

    def test_pullback_cone_has_no_transverse_terms(self):
        f = parse("x0^2*(y1^2+y2^2+y1*y2) + x0*x1*(y1^2+y2^2+y1*y2)"
                  " + x1^2*(y0*y1+y0*y2+y1^2+y2^2+y1*y2)")
        cone = chart_local(f, ORIGIN).degree_part(2)
        assert all(e[0] == 0 for e in cone.terms)

    def test_unit_hessian(self):
        assert det3(conic_gram(affine({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}))) == 8

    def test_reference_formula(self):
        # 8*a11*a22*c00 - 2*a11*b02^2 - 2*a12^2*c00 on the normalized cone
        # a11*y1^2 + a22*y2^2 + a12*y1*y2 + b02*x1*y2 + c00*x1^2
        def cone(a11, a22, a12, b02, c00):
            return affine({(0, 2, 0): a11, (0, 0, 2): a22, (0, 1, 1): a12,
                           (1, 0, 1): b02, (2, 0, 0): c00})
        assert det3(conic_gram(cone(1, 1, 0, 0, 1))) == 8
        for vals in ((1, 2, 3, 4, 5), (2, -1, 1, 3, -2)):
            a11, a22, a12, b02, c00 = vals
            expected = 8 * a11 * a22 * c00 - 2 * a11 * b02 ** 2 - 2 * a12 ** 2 * c00
            assert det3(conic_gram(cone(*vals))) == expected

    def test_rank_deficient(self):
        assert det3(conic_gram(affine({(2, 0, 0): 1, (0, 2, 0): 1}))) == 0


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
        assert classify_local(local.evaluate([sub[x] for x in CHART_VARS])).label == "A3"


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
        assert classify_local(chart_local(f, ORIGIN)).label == "A1"
        assert det3(conic_gram(chart_local(f, ORIGIN).degree_part(2))) == -4

    def test_vanishing_hessian_generic_gives_a2(self):
        f = base_point_family(1, 1, 1, 1, 1, 1, -1, 1, 1, 1, 1)
        assert det3(conic_gram(chart_local(f, ORIGIN).degree_part(2))) == 0
        assert classify_local(chart_local(f, ORIGIN)).label == "A2"
        assert local_algebra_dim(chart_local(f, ORIGIN)).label == "Stabilized(2)"

    def test_deeper_degeneration_gives_a3(self):
        f = base_point_family(1, 1, 2, 1, 1, 2, -1, 2, 1, -1, 1)
        assert det3(conic_gram(chart_local(f, ORIGIN).degree_part(2))) == 0
        assert classify_local(chart_local(f, ORIGIN)).label == "A3"
        assert local_algebra_dim(chart_local(f, ORIGIN)).label == "Stabilized(3)"

    def test_full_degeneration_non_isolated(self):
        f = base_point_family(1, 1, 2, 1, 1, 2, -1, 1, 0, -1, 1)
        assert det3(conic_gram(chart_local(f, ORIGIN).degree_part(2))) == 0
        assert classify_local(chart_local(f, ORIGIN)).label == "NonIsolatedSuspected(10)"
        assert local_algebra_dim(chart_local(f, ORIGIN)).label == "NotStabilized"

    def test_cutoff_below_two_rejected(self):
        local = chart_local(base_point_family(1, 1, 2, 1, 1, 2, -1, 2, 1, -1, 1), ORIGIN)
        for cutoff in (1, 0, -3):
            with pytest.raises(ValueError):
                local_algebra_dim(local, cutoff)


# ---------------------------------------------------------------------------
# Corank-1 germs: the splitting lemma against the truncated local algebra


def _algebra_type(local, cutoff):
    """The label the truncated local algebra gives: what every germ got before
    corank-1 germs went through the splitting lemma."""
    rank = matrix_rank(conic_gram(local.degree_part(2)))
    if rank == 3:
        return "A1"
    alg = local_algebra_dim(local, cutoff)
    if not alg.stabilized:
        return f"NonIsolatedSuspected({cutoff})"
    return f"A{alg.value}" if rank == 2 else "OtherIsolated"


def _isolated_records(forms):
    records = []
    for f in forms:
        try:
            records += singular_locus(f).isolated_points
        except (ValueError, NotImplementedError):  # recorded exit-3 inputs
            continue
    return tuple(records)


def _corank_one_germs(records):
    return [r.local for r in records if matrix_rank(conic_gram(r.tangent_cone)) == 2]


@lru_cache(maxsize=None)
def _golden_records():
    return _isolated_records(parse(e["text"]) for e in json.loads(CORPUS_PATH.read_text()))


@lru_cache(maxsize=None)
def _fixture_records():
    rng = random.Random("splitting/fixtures")
    return _isolated_records(act(random_unimodular(rng), parse(text))
                             for text in FIXTURES.values() for _ in range(2))


def _shifted_family(n, cutoff, rng, scalars):
    """The (cutoff + 1)-jet of q(U, V) + w^(n+1) + h(U, V, w) in chart
    coordinates moved by a random rational frame, with q a nondegenerate
    binary quadric, U = u + a w^2, V = v + b w^3 and h of weighted degree
    above 1 (u and v of weight 1/2, w of weight 1/(n+1)).  The germ is A_n,
    with a curved critical locus on which f cancels below w^(n+1); A_n is
    (n + 1)-determined, and both classifications read only the
    (cutoff + 1)-jet, so the label is A_n for n <= cutoff and
    NonIsolatedSuspected(cutoff) above."""
    w, u, v = (AffinePoly(CHART_VARS, {e: 1}) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    c = lambda: scalars[rng.randrange(len(scalars))]  # noqa: E731
    big_u, big_v = u + c() * w ** 2, v + c() * w ** 3
    while True:
        q = [c(), c(), c()]
        if not is_zero_scalar(4 * q[0] * q[2] - q[1] * q[1]):
            break
    f = (q[0] * big_u ** 2 + q[1] * big_u * big_v + q[2] * big_v ** 2 + c() * w ** (n + 1)
         + c() * big_u * big_v * w + c() * big_u * w ** ((n + 1) // 2 + 1) + c() * w ** (n + 2))
    while True:
        frame = [[Fraction(rng.randint(-1, 1), rng.randint(1, 2)) for _ in range(3)] for _ in range(3)]
        if not is_zero_scalar(det3(frame)):
            break
    moved = f.evaluate([sum((frame[i][j] * (w, u, v)[j] for j in range(3)), AffinePoly(CHART_VARS))
                        for i in range(3)])
    return AffinePoly(CHART_VARS, {e: x for e, x in moved.terms.items() if sum(e) <= cutoff + 1})


def _expected(n, cutoff):
    return f"A{n}" if n <= cutoff else f"NonIsolatedSuspected({cutoff})"


class TestSplittingLemma:
    """Every corank-1 germ's splitting-lemma type equals the truncated local
    algebra's, on both sides of the NonIsolatedSuspected(cutoff) boundary."""

    @pytest.mark.parametrize("cutoff", [10, 3])
    def test_golden_corpus_points(self, cutoff, monkeypatch):
        germs = _corank_one_germs(_golden_records())
        labels = [classify_local(g, cutoff).label for g in germs]
        assert labels == [_algebra_type(g, cutoff) for g in germs]
        assert "A3" in labels and ("A5" if cutoff == 10 else "NonIsolatedSuspected(3)") in labels
        # the same labels when the germ moves by the reference move
        monkeypatch.setattr(singularity, "moved_form", act_reference.moved_form)
        assert [classify_local(g, cutoff).label for g in germs] == labels

    def test_fixtures_under_frames(self):
        germs = _corank_one_germs(_fixture_records())
        assert germs
        for cutoff in (10, 3):
            assert [classify_local(g, cutoff).label for g in germs] == \
                [_algebra_type(g, cutoff) for g in germs]

    @pytest.mark.parametrize("cutoff", range(2, 11))
    def test_seeded_families_across_the_boundary(self, cutoff):
        # The truncated local algebra of such a germ under a rational frame
        # takes seconds from cutoff 5 on (47 s for an A10 germ at cutoff
        # 10), so above cutoff 4 the construction alone is the reference.
        rng = random.Random(f"splitting/{cutoff}")
        scalars = [Fraction(k, d) for k in range(-3, 4) if k for d in (1, 2)]
        for n in range(1, cutoff + 3):
            f = _shifted_family(n, cutoff, rng, scalars)
            assert classify_local(f, cutoff).label == _expected(n, cutoff)
            if cutoff <= 4:
                assert _algebra_type(f, cutoff) == _expected(n, cutoff)

    def test_family_over_a_quadratic_field(self):
        rng = random.Random("splitting/sqrt2")
        sqrt2 = NumberFieldElement((-2, 0, 1), (0, 1))
        scalars = [sqrt2 + k for k in (-1, 1, 2)] + [sqrt2 * k for k in (-1, 2)]
        for n in range(1, 6):
            f = _shifted_family(n, 3, rng, scalars)
            assert classify_local(f, 3).label == _algebra_type(f, 3) == _expected(n, 3)


class TestA1ByConeRank:
    """A point is A1 exactly when its tangent cone has rank 3 (the Morse
    lemma), which is all a verdict reads of it.  A rank-2 germ is
    q(u, v) + g(w) with g of order >= 3 (the splitting lemma), never A1."""

    @pytest.mark.parametrize("records", [_golden_records, _fixture_records],
                             ids=["golden", "fixtures-under-frames"])
    def test_is_a1_is_the_a1_label(self, records):
        records = records()
        assert [r.is_a1 for r in records] == [classify_local(r.local).label == "A1" for r in records]
        assert any(r.is_a1 for r in records) and not all(r.is_a1 for r in records)


# ---------------------------------------------------------------------------
# The fibre scan: repeated roots of the discriminant against every root


def full_scan_locus(f):
    """The singular locus of an irreducible f with det M(x) != 0 from the
    fibre over every root of the discriminant, simple roots included: the
    reference for the scan of the repeated roots alone."""
    pencil = fibre_matrix(f)
    points, components = [], []
    for p1pt, _mult in discriminant(pencil).roots():
        pts, comps = singularity._fibre_singularities(pencil, p1pt)
        points += pts
        components += comps
    sections = contracted_sections(pencil)
    components += [HorizontalSection(p2) for p2 in sections
                   if matrix_rank(polar_rows(pencil, p2)) == 0]
    unique_components = []
    for comp in components:
        if comp not in unique_components:
            unique_components.append(comp)
    on_section = [c.p2 for c in unique_components if isinstance(c, HorizontalSection)]
    unique_points = {}
    for P, line in points:
        P = (normalize_projective(P[0]), normalize_projective(P[1]))
        if P not in unique_points and not any(conjugate(P[1], p2) for p2 in on_section):
            unique_points[P] = line
    records = tuple(SingularPointRecord(P, chart_local(f, P), line)
                    for P, line in unique_points.items())
    return SingularLocus(records, tuple(unique_components), sections, pencil)


@lru_cache(maxsize=None)
def _scan_corpus():
    """Irreducible forms with a nonzero discriminant: the fixtures under
    seeded frames, seeded dense forms and seeded sparse-pool forms."""
    rng = random.Random("scan/corpus")
    forms = [act(random_unimodular(rng), parse(text)) for text in FIXTURES.values() for _ in range(2)]
    forms += [random_poly(rng) for _ in range(20)]
    forms += [parse(text) for text in pool_forms(150, "scan/sparse")]
    return tuple(f for f in forms if not discriminant(fibre_matrix(f)).is_zero()
                 and len(bihomogeneous_factor(f)) == 1)


class TestRepeatedRootScan:
    """Only a repeated root of det M(x) carries a singular point (Jacobi's
    formula; see _singular_locus_irreducible), so the scan of those fibres
    finds what the scan of every fibre finds."""

    def test_matches_full_scan(self):
        forms = _scan_corpus()
        assert len(forms) >= 100
        singular = 0
        for f in forms:
            locus = singular_locus(f)
            reference = full_scan_locus(f)
            assert locus.isolated_points == reference.isolated_points, repr(f)
            assert locus.curve_components == reference.curve_components, repr(f)
            assert locus.section_points == reference.section_points
            singular += not locus.is_smooth
        assert 10 <= singular < len(forms)

    def test_simple_roots_carry_nothing(self):
        simple = 0
        for f in _scan_corpus():
            pencil = fibre_matrix(f)
            for p1pt, mult in discriminant(pencil).roots():
                if mult == 1:
                    simple += 1
                    assert singularity._fibre_singularities(pencil, p1pt) == ([], [])
        assert simple >= 100

    def test_squarefree_discriminant_scans_no_fibre(self, monkeypatch):
        calls = []
        scan = singularity._fibre_singularities
        monkeypatch.setattr(singularity, "_fibre_singularities",
                            lambda *args: calls.append(args) or scan(*args))
        rng = random.Random("scan/squarefree")
        while True:
            f = random_poly(rng)
            disc = discriminant(fibre_matrix(f))
            if disc.poly.degree == 6 and all(mult == 1 for _p, mult in disc.roots()):
                break
        assert classify(f).stability.value == "Stable"
        assert calls == []
        classify(parse(FIXTURES["cone_point"]))
        assert calls
