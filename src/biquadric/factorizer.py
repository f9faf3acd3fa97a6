"""Factorization of bidegree-(2,2) forms into irreducibles over the algebraic
closure, read off the structure of the form.

Write f = A x0^2 + B x0 x1 + C x1^2 with conics A, B, C in y.  By Gauss's
lemma f is, over the rationals, its x-content times its y-content times a
primitive part:

- the x-content is the gcd of the binary quadratics that multiply the six
  y-monomials; it factors through its roots;
- the y-content is the common component of the conics: all of them
  proportional, or a shared line of one of them;
- a primitive part of bidegree (1,1), (1,2) or (2,1) is irreducible, since
  every splitting of these bidegrees has a pure factor.  One of bidegree
  (2,2) is a product P Q of two (1,1) forms iff B^2 - 4AC is a square S^2:
  with P = p0 x0 + p1 x1 and Q = q0 x0 + q1 x1, A = p0 q0 and
  (B + S)/2 = p0 q1, so p0 is the line of A that divides (B + S)/2.

The splittings invisible over the rationals are conjugate pairs over one
quadratic field: binary quadratics in x by their roots, conics in y by their
Gram rank, and (2,2) forms whose S needs sqrt(d), split by the same (1,1)
construction over Q(sqrt(d)).

The rational factors are primitive over the integers with a positive
coefficient at the lex-leading monomial (x0 > x1 > y0 > y1 > y2), repeated
factors grouped, and listed in the order of sympy's ``factor_list``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple

from .bipoly import AffinePoly, BiPoly, coefficient_matrix, form_of_matrix
from .fibration import (
    BinForm,
    binform_gcd,
    common_component,
    conic_coefficients,
    conic_gram,
    line_divides_conic,
    split_conic,
)
from .scalars import (
    NumberFieldElement,
    as_fraction,
    is_zero_scalar,
    primitive_integers,
    scalar_inv,
    squarefree_part,
)

Factor = Tuple[Tuple[int, int], BiPoly]


def _rational_sqrt(c: Fraction) -> Optional[Fraction]:
    if c < 0:
        return None
    rn, rd = math.isqrt(c.numerator), math.isqrt(c.denominator)
    if rn * rn == c.numerator and rd * rd == c.denominator:
        return Fraction(rn, rd)
    return None


def poly_sqrt(delta: AffinePoly) -> Optional[AffinePoly]:
    """Formal square root of a rational polynomial, allowing one quadratic
    scalar extension Q(sqrt(d)), d a squarefree integer, for the leading
    coefficient; None certifies it is not a square.  With P the primitive
    integer multiple of delta and L its leading coefficient, a root of L P
    with leading coefficient L is integral if there is one (Gauss's lemma):
    each next term is an exact integer quotient, or there is no root.
    """
    if delta.is_zero():
        return AffinePoly(delta.vars)
    lead = max(delta.terms)
    c = delta.terms[lead]
    if isinstance(c, NumberFieldElement) or any(e % 2 for e in lead):
        return None
    nums = dict(zip(delta.terms, primitive_integers(delta.terms.values())))
    top, half = nums[lead], tuple(e // 2 for e in lead)
    s = AffinePoly(delta.vars, {half: top})
    residual = AffinePoly(delta.vars, {e: top * n for e, n in nums.items()}) - s * s
    while not residual.is_zero():
        lt = max(residual.terms)
        diff = tuple(a - b for a, b in zip(lt, half))
        q, rem = divmod(residual.terms[lt], 2 * top)
        if rem or any(d < 0 for d in diff) or diff >= half:
            return None
        step = AffinePoly(delta.vars, {diff: q})
        residual = residual - step * (s * 2 + step)
        s = s + step
    root = _rational_sqrt(c)
    if root is None:
        # sqrt(c) = r sqrt(d); t^2 - d is irreducible since c is not a square
        d = squarefree_part(c)
        root = NumberFieldElement((-d, 0, 1), (0, _rational_sqrt(Fraction(c, d))))
    return s * (root * Fraction(1, top))


def bihomogeneous_factor(f: BiPoly) -> List[Factor]:
    """Complete factorization into geometrically irreducible bihomogeneous
    factors; repeated factors appear with repetition.  The product of the
    factors equals f up to a nonzero rational scalar.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.bidegree != (2, 2):
        raise ValueError("factorization is specific to bidegree (2, 2)")
    grouped: dict = {}
    for fac, pieces in _rational_factors(f):
        grouped.setdefault(fac, [pieces, 0])[1] += 1
    out: List[Factor] = []
    for fac, (pieces, mult) in sorted(grouped.items(), key=lambda kv: _sympy_key(kv[0], kv[1][1])):
        for piece in pieces:
            out.extend([(piece.bidegree, piece)] * mult)
    return out


def _rational_factors(f: BiPoly) -> List[Tuple[BiPoly, List[BiPoly]]]:
    """The irreducible factors of f over the rationals, with repetition, each
    paired with its split over the closure."""
    out = []
    cx = _x_content(f)
    if cx.d:
        out.extend(_x_factors(cx))
        f = _quotient(f, form_of_matrix((cx.d, 0), [[c] for c in cx.coeffs]))
    cy = common_component([q for q in conic_coefficients(f) if not q.is_zero()])
    if cy is not None:
        out.extend(_y_factors(cy))
        f = _quotient(f, _y_form(cy))
    if f.bidegree == (2, 2):
        out.extend(_primitive_22_factors(f))
    elif f.bidegree != (0, 0):
        fac = _primitive(f)
        out.append((fac, [fac]))
    return out


def _x_content(f: BiPoly) -> BinForm:
    """The gcd of the binary quadratics that multiply the y-monomials: the
    columns of the coefficient matrix."""
    g = BinForm(2)
    for column in zip(*coefficient_matrix(f)):
        g = binform_gcd(g, BinForm(2, column))
        if g.d == 0:
            break
    return g


def _y_form(q: AffinePoly) -> BiPoly:
    return BiPoly((0, q.total_degree()), {(0, 0) + e: c for e, c in q.terms.items()})


def _x_factors(cx: BinForm):
    out = []
    for (p0, p1), mult in cx.roots():
        if isinstance(p1, NumberFieldElement):
            # an irreducible quadratic: the lines x1 - r x0 at its root r = p1
            # and at the conjugate root -m1 - r, m1 the linear coefficient of
            # the minimal polynomial
            pieces = [form_of_matrix((1, 0), [[-r], [1]]) for r in (p1, -p1.modulus[1] - p1)]
            return [(_primitive(form_of_matrix((2, 0), [[c] for c in cx.coeffs])), pieces)]
        # the linear form vanishing at [p0 : p1]
        line = _primitive(form_of_matrix((1, 0), [[p1], [-p0]]))
        out.extend([(line, [line])] * mult)
    return out


def _y_factors(cy: AffinePoly):
    fac = _primitive(_y_form(cy))
    lines = split_conic(cy) if fac.bidegree == (0, 2) else None
    if lines is None:
        return [(fac, [fac])]
    pieces = [form_of_matrix((0, 1), [line]) for line in lines]
    if any(isinstance(c, NumberFieldElement) for c in lines[0]):
        return [(fac, pieces)]  # two conjugate lines
    return [(line, [line]) for line in map(_primitive, pieces)]


def _primitive_22_factors(g: BiPoly):
    """A primitive (2,2) form: irreducible, two rational (1,1) forms, or a
    rational form that splits into two conjugate (1,1) forms."""
    A, B, C = conic_coefficients(g)
    s = poly_sqrt(B * B - A * C * 4)
    if s is None:
        fac = _primitive(g)
        return [(fac, [fac])]
    modulus = next(
        (c.modulus for c in s.terms.values() if isinstance(c, NumberFieldElement)), None
    )
    pair = _bilinear_pair(A, B, C, s, modulus)
    if modulus is None:
        return [(fac, [fac]) for fac in map(_primitive, pair)]
    pieces = sorted((_monic(p, modulus) for p in pair), key=_sympy_conjugate_key)
    return [(_primitive(g), pieces)]


def _bilinear_pair(A, B, C, s, modulus) -> Tuple[BiPoly, BiPoly]:
    """P and Q with A x0^2 + B x0 x1 + C x1^2 = P Q up to a scalar, given
    s^2 = B^2 - 4AC over the rationals or over Q[t]/(modulus).

    With A = p0 q0, M = (B + s)/2 = p0 q1 and N = (B - s)/2 = p1 q0: a line
    l = k p0 of A divides M, and then A / l = q0 / k, M / l = q1 / k and
    N / (A / l) = k p1.
    """
    m = (B + s) * Fraction(1, 2)
    n = (B - s) * Fraction(1, 2)
    for line in split_conic(A) or ():
        line = tuple(_in_field(c, modulus) for c in line)
        if None in line or not line_divides_conic(line, conic_gram(m)):
            continue
        q0 = _line_quotient(A, line)
        p = form_of_matrix((1, 1), [line, _line_quotient(n, q0)])
        q = form_of_matrix((1, 1), [q0, _line_quotient(m, line)])
        return p, q
    raise RuntimeError("no line of A divides (B + S)/2")


def _in_field(c, modulus):
    """c, rational or in a quadratic field, written over Q[t]/(t^2 - d) with
    modulus = (-d, 0, 1); None if c lies outside that field."""
    if not isinstance(c, NumberFieldElement) or c.modulus == modulus:
        return c
    if modulus is None:
        return None
    # c = a + b t with t^2 + m1 t + m0 = 0, so t = (-m1 + sqrt(m1^2 - 4 m0)) / 2
    m0, m1, _one = c.modulus
    r = _rational_sqrt(Fraction(m1 * m1 - 4 * m0, -modulus[0]))
    if r is None:
        return None
    a, b = (c.residue + (0, 0))[:2]
    return NumberFieldElement(modulus, (a - b * m1 * Fraction(1, 2), b * r * Fraction(1, 2)))


def _line_quotient(q: AffinePoly, line):
    """The linear form m, a coefficient triple, with line * m = q."""
    conic = BiPoly((0, 2), {(0, 0) + e: c for e, c in q.terms.items()})
    return coefficient_matrix(_quotient(conic, form_of_matrix((0, 1), [line])))[0]


def _quotient(f: BiPoly, d: BiPoly) -> BiPoly:
    """f / d for a divisor d of f, by division of lex-leading terms."""
    rem = dict(f.terms)
    lead = max(d.terms)
    inv = scalar_inv(d.terms[lead])
    out: dict = {}
    while rem:
        top = max(rem)
        qm = tuple(a - b for a, b in zip(top, lead))
        q = out[qm] = rem[top] * inv
        for em, e in d.terms.items():
            mono = tuple(a + b for a, b in zip(qm, em))
            rest = rem.get(mono, 0) - q * e
            if is_zero_scalar(rest):
                rem.pop(mono, None)
            else:
                rem[mono] = rest
    return BiPoly((f.bidegree[0] - d.bidegree[0], f.bidegree[1] - d.bidegree[1]), out)


def _primitive(f: BiPoly) -> BiPoly:
    """f scaled to coprime integer coefficients, positive at the lex-leading
    monomial; terms in descending lex order."""
    keys = sorted(f.terms, reverse=True)
    nums = primitive_integers(as_fraction(f.terms[m]) for m in keys)
    sign = 1 if nums[0] > 0 else -1
    return BiPoly(f.bidegree, {m: sign * n for m, n in zip(keys, nums)})


def _monic(f: BiPoly, modulus) -> BiPoly:
    """f over Q[t]/(modulus), scaled to 1 at the lex-leading monomial; terms
    in descending lex order."""
    keys = sorted(f.terms, reverse=True)
    inv = scalar_inv(f.terms[keys[0]])
    terms = {}
    for m in keys:
        c = f.terms[m] * inv
        terms[m] = c if isinstance(c, NumberFieldElement) else NumberFieldElement.from_rational(modulus, c)
    return BiPoly(f.bidegree, terms)


def _dense(terms: dict, u: int):
    """sympy's dense recursive coefficient list of a polynomial in u + 1
    variables, given as an exponent-tuple -> coefficient map."""
    if not terms:
        out: list = []
        for _ in range(u):
            out = [out]
        return out
    top = max(e[0] for e in terms)
    if u == 0:
        return [terms.get((i,), 0) for i in range(top, -1, -1)]
    return [
        _dense({e[1:]: c for e, c in terms.items() if e[0] == i}, u - 1)
        for i in range(top, -1, -1)
    ]


def _sympy_key(fac: BiPoly, mult: int):
    """sympy's factor order, ``(len(rep), gens, exp, domain, rep)`` with the
    five generators and the integers fixed."""
    rep = _dense({m: int(c) for m, c in fac.terms.items()}, 4)
    return (len(rep), mult, rep)


def _sympy_conjugate_key(piece: BiPoly):
    """sympy's order of two conjugate pieces over Q(sqrt(d)): their
    coefficients in descending lex order, each as the list [b, a] of
    a + b sqrt(d) with leading zeros dropped."""
    return [list(reversed(c.residue)) for c in piece.terms.values()]
