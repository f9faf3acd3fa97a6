import json
import random
from fractions import Fraction

import pytest
import sympy

from biquadric.bipoly import AffinePoly, BiPoly, act, all_monomials, is_scalar_multiple, parse
from biquadric.fibration import conic_coefficients, split_conic
from biquadric.factorizer import bihomogeneous_factor, poly_sqrt
from biquadric.scalars import NumberFieldElement, UniPoly, uv_roots
from conftest import FIXTURES, random_poly, random_unimodular
from make_golden import CORPUS_PATH, factor_patterns

IRREDUCIBLE = parse(
    "x0^2*(y0^2+y1^2+y2^2) + x0*x1*(y0*y1+y1*y2)"
    " + x1^2*(y0^2+2*y1^2+3*y2^2+y0*y2)"
)


def bidegrees(factors):
    return sorted(bd for bd, _ in factors)


def _factor_field(fac: BiPoly):
    for c in fac.terms.values():
        if isinstance(c, NumberFieldElement):
            return c.modulus
    return None


def _rationalized(f: BiPoly) -> BiPoly:
    """Demote number-field coefficients that are in fact rational."""
    terms = {}
    for m, c in f.terms.items():
        if isinstance(c, NumberFieldElement) and c.is_rational():
            c = c.as_fraction()
        terms[m] = c
    return BiPoly(f.bidegree, terms)


def product_of_factors(factors) -> BiPoly:
    """Multiply the factor list back together, the reference the factor
    checks compare f against.

    Factors over distinct quadratic fields cannot be multiplied directly (no
    composite fields are constructed), so conjugate groups are multiplied
    first; each group product is rational.
    """
    groups: dict = {}
    for _bd, fac in factors:
        groups.setdefault(_factor_field(fac), []).append(fac)
    partials = []
    for modulus, facs in groups.items():
        acc = facs[0]
        for fac in facs[1:]:
            acc = acc * fac
        acc = _rationalized(acc)
        if modulus is not None and any(
            isinstance(c, NumberFieldElement) for c in acc.terms.values()
        ):
            raise ValueError("conjugate factor group with irrational product")
        partials.append(acc)
    acc = partials[0]
    for p in partials[1:]:
        acc = acc * p
    return acc


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


class TestGoldenConjugatePair:
    def test_conjugate_11_pair_splits_over_sqrt2(self):
        # P^2 - 2 Q^2 for random (1,1) forms P, Q: once a multi-second
        # factorization over Q(sqrt 2)
        entry = next(e for e in json.loads(CORPUS_PATH.read_text())
                     if e["name"] == "pattern:conjugate-(1,1)-pair")
        f = parse(entry["text"])
        factors = bihomogeneous_factor(f)
        assert bidegrees(factors) == [(1, 1), (1, 1)]
        moduli = {c.modulus for _bd, p in factors for c in p.terms.values()}
        assert moduli == {(Fraction(-2), Fraction(0), Fraction(1))}
        assert is_scalar_multiple(product_of_factors(factors), f)


# ---------------------------------------------------------------------------
# Differential test against the multivariate sympy.factor_list route that the
# structural factorization replaced, kept here as the oracle.

_SYMS = sympy.symbols("x0 x1 y0 y1 y2")


def _to_sympy(f: BiPoly):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[s ** e for s, e in zip(_SYMS, m)])
        for m, c in f.terms.items()
    ])


def _from_sympy_poly(poly, convert) -> BiPoly:
    terms = {e: convert(c) for e, c in poly.terms()}
    m = next(iter(terms))
    return BiPoly((sum(m[:2]), sum(m[2:])), terms)


def _reference_factor(f: BiPoly):
    _coeff, factors = sympy.factor_list(_to_sympy(f), *_SYMS)
    out = []
    for expr, mult in factors:
        fac = _from_sympy_poly(
            sympy.Poly(expr, *_SYMS), lambda c: Fraction(int(c.p), int(c.q)))
        for piece in _reference_split(fac):
            out.extend([(piece.bidegree, piece)] * mult)
    return out


def _reference_split(fac: BiPoly):
    """Split a rationally irreducible factor over the closure; a (2,2) factor
    splits over Q(sqrt d) iff B^2 - 4AC is a constant times a square, with d
    the squarefree part of its leading coefficient."""
    if fac.bidegree == (2, 0):
        poly = UniPoly([fac.coefficient((2 - i, i, 0, 0, 0)) for i in range(3)]).monic()
        (alpha, _mult), = uv_roots(poly)
        return [
            BiPoly((1, 0), {(1, 0, 0, 0, 0): -root, (0, 1, 0, 0, 0): 1})
            for root in (alpha, -poly.coeffs[1] - alpha)
        ]
    if fac.bidegree == (0, 2):
        lines = split_conic(conic_coefficients(fac)[0])
        if lines is None:
            return [fac]
        return [
            BiPoly((0, 1), {(0, 0) + tuple(int(i == j) for j in range(3)): line[i] for i in range(3)})
            for line in lines
        ]
    if fac.bidegree != (2, 2):
        return [fac]
    x0, x1 = _SYMS[:2]
    expr = _to_sympy(fac)
    a, c = expr.coeff(x0, 2), expr.coeff(x1, 2)
    b = expr.coeff(x0, 1).coeff(x1, 1)
    delta = sympy.expand(b * b - 4 * a * c)
    if any(m % 2 for _f, m in sympy.factor_list(delta)[1]):
        return [fac]
    lead = sympy.Poly(delta, *_SYMS[2:]).LC()
    d = sympy.sign(lead) * sympy.Mul(*[
        p for p, e in sympy.factorint(abs(lead.p * lead.q)).items() if e % 2])
    field = sympy.QQ.algebraic_field(sympy.sqrt(d))
    assert field.mod.to_list() == [1, 0, -d]
    modulus = (Fraction(-int(d)), Fraction(0), Fraction(1))

    def convert(anp):
        residue = [Fraction(int(q.numerator), int(q.denominator)) for q in reversed(anp.to_list())]
        return NumberFieldElement(modulus, residue)

    pieces = []
    for piece, mult in sympy.factor_list(expr, *_SYMS, extension=sympy.sqrt(d))[1]:
        poly = sympy.Poly(piece, *_SYMS, domain=field)
        terms = {e: convert(c) for e, c in poly.rep.terms()}
        pieces.extend([BiPoly((1, 1), terms)] * mult)
    return pieces


def _listing(factors):
    """Bidegrees, terms in stored order, coefficient types and values."""
    return [
        (bd, [(m, type(c).__name__, c) for m, c in p.terms.items()])
        for bd, p in factors
    ]


def _bipoly(rng, bidegree, keep, lo=-2, hi=2):
    while True:
        f = BiPoly(bidegree, {
            m: Fraction(rng.randint(lo, hi))
            for m in all_monomials(bidegree) if rng.random() < keep
        })
        if not f.is_zero():
            return f


def _differential_inputs():
    rng = random.Random(20261017)
    out = []
    for _ in range(10):
        for name, f in factor_patterns(rng).items():
            if name == "conjugate-(1,1)-pair":
                continue  # dense P, Q take seconds in the oracle; sparse pairs below
            out.append((name, f))
            out.append((name + " moved", act(random_unimodular(rng), f)))
    for name, text in FIXTURES.items():
        for k in range(2):
            out.append((f"fixture {name} moved", act(random_unimodular(rng), parse(text))))
    for k in range(50):
        out.append(("dense", random_poly(rng)))
    for k in range(40):
        out.append(("sparse", random_poly(rng, lo=-2, hi=2, keep=0.35)))
    for d in (2, -1, 3, -2, Fraction(1, 2), 12, -3, 5):
        while True:
            p = _bipoly(rng, (1, 1), 0.4, -1, 1)
            q = _bipoly(rng, (1, 1), 0.4, -1, 1)
            f = p * p - q * q * d
            # sparse P, Q often share a factor; keep P^2 - d Q^2 irreducible over Q
            if len(sympy.factor_list(_to_sympy(f), *_SYMS)[1]) == 1:
                break
        out.append((f"conjugate (1,1) pair, d = {d}", f))
    return out


class TestAgainstSympyFactorList:
    def test_same_factor_list_as_sympy_route(self):
        inputs = _differential_inputs()
        assert len(inputs) >= 500
        mismatched = []
        for name, f in inputs:
            factors = bihomogeneous_factor(f)
            assert is_scalar_multiple(product_of_factors(factors), f), name
            if _listing(factors) != _listing(_reference_factor(f)):
                mismatched.append(f"{name}: {f!r}")
        assert not mismatched, "\n".join(mismatched)
