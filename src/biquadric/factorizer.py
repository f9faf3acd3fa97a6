"""Factorization of bidegree-(2,2) forms into irreducibles over the algebraic
closure.

The rational factorization is delegated to a mature multivariate routine; the
only splittings invisible over the rationals are conjugate pairs over a single
quadratic extension, which are detected structurally: binary quadratics in x
by their roots, conics in y by their Gram rank, and full (2,2) forms by a
formal square-root extraction on the x-discriminant B^2 - 4AC.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

import sympy

from .bipoly import AffinePoly, BiPoly
from .fibration import conic_coefficients, conic_of, split_conic
from .scalars import (
    NumberFieldElement,
    UniPoly,
    as_fraction,
    is_zero_scalar,
    scalar_inv,
    uv_roots,
)

_SYMS = sympy.symbols("x0 x1 y0 y1 y2")


def _to_sympy_expr(f: BiPoly):
    expr = sympy.Integer(0)
    for (alpha, beta), c in f.terms.items():
        if isinstance(c, NumberFieldElement):
            raise TypeError("factorization requires rational coefficients")
        term = sympy.Rational(c.numerator, c.denominator)
        for sym, e in zip(_SYMS, alpha + beta):
            if e:
                term = term * sym ** e
        expr = expr + term
    return expr


def _rational_sqrt(c: Fraction) -> Optional[Fraction]:
    if c < 0:
        return None
    num = sympy.Integer(c.numerator)
    den = sympy.Integer(c.denominator)
    rn = sympy.integer_nthroot(num, 2)
    rd = sympy.integer_nthroot(den, 2)
    if rn[1] and rd[1]:
        return Fraction(int(rn[0]), int(rd[0]))
    return None


def poly_sqrt(delta: AffinePoly) -> Optional[AffinePoly]:
    """Formal square root of a polynomial, allowing one quadratic scalar
    extension for the leading coefficient; None certifies it is not a square.
    """
    if delta.is_zero():
        return AffinePoly(delta.vars)
    lead = max(delta.terms)
    if any(e % 2 for e in lead):
        return None
    half = tuple(e // 2 for e in lead)
    c = delta.terms[lead]
    if isinstance(c, NumberFieldElement):
        return None
    root = _rational_sqrt(c)
    if root is None:
        # t^2 - c is irreducible since c is not a rational square
        lead_coeff = NumberFieldElement(UniPoly([-c, Fraction(0), Fraction(1)]), UniPoly.gen())
    else:
        lead_coeff = root
    s = AffinePoly(delta.vars, {half: lead_coeff})
    inv_twice = scalar_inv(2 * lead_coeff)
    while True:
        residual = delta - s * s
        if residual.is_zero():
            return s
        lt = max(residual.terms)
        diff = tuple(a - b for a, b in zip(lt, half))
        if any(d < 0 for d in diff) or diff >= half:
            return None
        s = s + AffinePoly(delta.vars, {diff: residual.terms[lt] * inv_twice})


Factor = Tuple[Tuple[int, int], BiPoly]


def bihomogeneous_factor(f: BiPoly) -> List[Factor]:
    """Complete factorization into geometrically irreducible bihomogeneous
    factors; repeated factors appear with repetition.  The product of the
    factors equals f up to a nonzero rational scalar.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.bidegree != (2, 2):
        raise ValueError("factorization is specific to bidegree (2, 2)")
    expr = _to_sympy_expr(f)
    _coeff, rational_factors = sympy.factor_list(expr, *_SYMS)
    out: List[Factor] = []
    for fac_expr, mult in rational_factors:
        fac = _bipoly_from_expr(fac_expr)
        for piece in _split_geometric(fac):
            out.extend([(piece.bidegree, piece)] * mult)
    return out


def _bipoly_from_expr(expr) -> BiPoly:
    poly = sympy.Poly(expr, *_SYMS)
    terms = {}
    for exps, coeff in poly.terms():
        alpha = (exps[0], exps[1])
        beta = (exps[2], exps[3], exps[4])
        r = sympy.Rational(coeff)
        terms[(alpha, beta)] = Fraction(r.p, r.q)
    return BiPoly(_infer_bidegree(terms), terms)


def _infer_bidegree(terms) -> Tuple[int, int]:
    (alpha, beta) = next(iter(terms))
    return (sum(alpha), sum(beta))


def _split_geometric(fac: BiPoly) -> List[BiPoly]:
    """Split a rationally irreducible bihomogeneous factor over the closure."""
    d1, d2 = fac.bidegree
    if (d1, d2) == (2, 0):
        return _split_binary_x(fac)
    if (d1, d2) == (0, 2):
        return _split_conic_factor(fac)
    if (d1, d2) == (2, 2):
        return _split_22(fac)
    # bidegrees (1,0), (0,1), (1,1), (2,1), (1,2): a conjugate-pair split
    # would force equal bidegrees on both parts, which is impossible here,
    # so rational irreducibility already implies geometric irreducibility
    return [fac]


def _split_binary_x(fac: BiPoly) -> List[BiPoly]:
    """A rationally irreducible binary quadratic in x: two conjugate lines."""
    c20 = fac.coefficient(((2, 0), (0, 0, 0)))
    c11 = fac.coefficient(((1, 1), (0, 0, 0)))
    c02 = fac.coefficient(((0, 2), (0, 0, 0)))
    # roots of c20 + c11 t + c02 t^2 = 0 for t = x1/x0 (both extreme
    # coefficients are nonzero since the form is irreducible over Q)
    poly = UniPoly([c20, c11, c02]).monic()
    (alpha, _mult), = uv_roots(poly)
    beta = -poly.coeffs[1] - alpha
    out = []
    for root in (alpha, beta):
        out.append(BiPoly((1, 0), {((1, 0), (0, 0, 0)): -root, ((0, 1), (0, 0, 0)): 1}))
    return out


def _split_conic_factor(fac: BiPoly) -> List[BiPoly]:
    lines = split_conic(conic_of(fac))
    if lines is None:
        return [fac]
    out = []
    for line in lines:
        out.append(
            BiPoly(
                (0, 1),
                {((0, 0), tuple(int(i == j) for j in range(3))): line[i] for i in range(3)},
            )
        )
    return out


def _split_22(fac: BiPoly) -> List[BiPoly]:
    """A rationally irreducible (2,2) form either stays irreducible or splits
    into two conjugate (1,1) forms over one quadratic extension; the split
    exists iff the x-discriminant is a perfect square over the closure."""
    A, B, C = conic_coefficients(fac)
    delta = B * B - A * C * 4
    s = poly_sqrt(delta)
    if s is None:
        return [fac]
    ext = _extension_of(s)
    if ext is None:
        # a rational square discriminant would give rational factors,
        # contradicting rational irreducibility
        return [fac]
    ext = _squarefree_part(ext)
    sqrt_expr = sympy.sqrt(sympy.Rational(ext.numerator, ext.denominator))
    _coeff, factors = sympy.factor_list(_to_sympy_expr(fac), *_SYMS, extension=sqrt_expr)
    pieces = []
    for fe, mult in factors:
        piece = _bipoly_from_nf_expr(fe, sqrt_expr, ext)
        pieces.extend([piece] * mult)
    if len(pieces) < 2:
        return [fac]
    return pieces


def _squarefree_part(d: Fraction) -> Fraction:
    """The squarefree integer generating the same quadratic field as sqrt(d)."""
    n = d.numerator * d.denominator  # sqrt(p/q) and sqrt(pq) generate the same field
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = sign
    for p, e in sympy.factorint(n).items():
        if e % 2:
            out *= int(p)
    return Fraction(out)


def _extension_of(s: AffinePoly) -> Optional[Fraction]:
    """The rational d with coefficients of s in Q(sqrt(d)), if irrational."""
    for c in s.terms.values():
        if isinstance(c, NumberFieldElement):
            modulus = c.modulus  # t^2 - d
            return -as_fraction(modulus[0])
    return None


def _bipoly_from_nf_expr(expr, sqrt_expr, d: Fraction) -> BiPoly:
    modulus = (-d, Fraction(0), Fraction(1))
    poly = sympy.Poly(sympy.expand(expr), *_SYMS)
    terms: dict = {}
    for exps, coeff in poly.terms():
        key = ((exps[0], exps[1]), (exps[2], exps[3], exps[4]))
        # write the coefficient as a + b*sqrt(d) with rational a, b
        cc = sympy.radsimp(sympy.expand(coeff))
        b = sympy.together(cc.coeff(sqrt_expr))
        a = sympy.simplify(cc - b * sqrt_expr)
        ra, rb = sympy.Rational(a), sympy.Rational(b)
        val = NumberFieldElement(
            modulus, [Fraction(ra.p, ra.q), Fraction(rb.p, rb.q)]
        )
        if not is_zero_scalar(val):
            terms[key] = val
    return BiPoly(_infer_bidegree(terms), terms)


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


def product_of_factors(factors: List[Factor]) -> BiPoly:
    """Multiply the factor list back together (for verification).

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

