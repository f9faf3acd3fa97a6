"""Conic-bundle geometry of the first projection of a (2,2)-surface.

A bidegree-(2,2) polynomial is a quadratic form in (y0, y1, y2) whose Gram
matrix entries are binary quadratic forms in (x0, x1): each fibre of the first
projection is a conic.  This module computes the fibre Gram pencil, its
determinant (a binary sextic locating singular fibres), the rank
classification of individual fibres, the points of P^2 whose section is
contracted, the tangent-direction map at such a point, and ramification tests
for fibre lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .bipoly import AffinePoly, BiPoly, Y_VARS, cross, det3, dot, is_scalar_multiple
from .scalars import (
    NumberFieldElement,
    UniPoly,
    is_zero_scalar,
    scalar_inv,
    uv_gcd,
    uv_roots,
)

# ---------------------------------------------------------------------------
# Binary forms in (x0, x1)


class BinForm:
    """Homogeneous binary form of formal degree d, stored as the univariate
    polynomial poly(t) = form(1, t); coefficient i multiplies x0^(d-i) x1^i.

    A drop of poly's degree below d is a root at [0, 1] (infinity).  The zero
    form of degree d keeps its formal degree for bookkeeping.
    """

    __slots__ = ("d", "poly")

    def __init__(self, d: int, coeffs: Union[Sequence, UniPoly] = ()):
        self.d = int(d)
        self.poly = coeffs if isinstance(coeffs, UniPoly) else UniPoly(coeffs)
        if self.poly.degree > self.d:
            raise ValueError("too many coefficients")

    @property
    def coeffs(self) -> Tuple:
        return self.poly.coeffs + (0,) * (self.d - self.poly.degree)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, BinForm):
            return NotImplemented
        return self.d == other.d and self.poly == other.poly

    def __hash__(self):
        return hash((self.d, self.poly))

    def __add__(self, other):
        if self.d != other.d:
            raise ValueError("degree mismatch")
        return BinForm(self.d, self.poly + other.poly)

    def __neg__(self):
        return BinForm(self.d, -self.poly)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, BinForm):
            return BinForm(self.d + other.d, self.poly * other.poly)
        return BinForm(self.d, self.poly * other)

    __rmul__ = __mul__

    def evaluate(self, p):
        """Value at a P^1 point given by a coordinate pair of scalars:
        Horner's rule in p0 on the coefficients times powers of p1."""
        p0, p1 = p
        acc = 0
        p1_power = 1
        for i, c in enumerate(self.coeffs):
            if i:
                acc = acc * p0
                p1_power = p1_power * p1
            if not is_zero_scalar(c):
                acc = acc + c * p1_power
        return acc

    def roots(self) -> List[Tuple[Tuple[object, object], int]]:
        """Roots in P^1 with multiplicities, as found by ``uv_roots``.

        A root r of poly is the point [1, r]; the point at infinity [0, 1]
        accounts for any drop in the degree of poly.
        """
        if self.is_zero():
            raise ValueError("the zero form has no root list")
        out: List[Tuple[Tuple[object, object], int]] = []
        if self.d > self.poly.degree:
            out.append(((0, 1), self.d - self.poly.degree))
        for root, mult in uv_roots(self.poly):
            out.append(((1, root), mult))
        return out

    def __repr__(self):
        return f"BinForm({self.d}, {list(self.coeffs)})"


def binform_gcd(a: BinForm, b: BinForm) -> BinForm:
    """Monic-normalized gcd of two rational binary forms (zero if both zero)."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    g = uv_gcd(a.poly, b.poly)
    # the shared root at infinity raises the formal degree only
    return BinForm(g.degree + min(a.d - a.poly.degree, b.d - b.poly.degree), g)


# ---------------------------------------------------------------------------
# Fibre pencil


@dataclass(frozen=True)
class ConicPencil:
    """The Gram matrices grams = (G_A, G_B, G_C) of the conics of f = A x0^2 +
    B x0 x1 + C x1^2, and M(x) = G_A x0^2 + G_B x0 x1 + G_C x1^2: y^T M(x) y = 2 f."""

    grams: Tuple

    @property
    def entries(self) -> Tuple[Tuple[BinForm, ...], ...]:
        """M(x) as a matrix of binary quadratics."""
        return tuple(tuple(BinForm(2, [g[i][j] for g in self.grams]) for j in range(3))
                     for i in range(3))

    def evaluate(self, p):
        """M(p), the Gram matrix of the fibre conic over p."""
        return self._combine(p[0] * p[0], p[0] * p[1], p[1] * p[1])

    def x_partials(self, p):
        """The Gram matrices of f_x0 = 2 x0 A + x1 B and f_x1 = x0 B + 2 x1 C over p."""
        return self._combine(2 * p[0], p[1], 0), self._combine(0, p[0], 2 * p[1])

    def _combine(self, *weights):
        """The sum of weights[k] * grams[k], skipping zero weights and entries."""
        terms = [(w, g) for w, g in zip(weights, self.grams) if not is_zero_scalar(w)]
        return tuple(tuple(sum((w * g[i][j] for w, g in terms if not is_zero_scalar(g[i][j])), 0)
                           for j in range(3)) for i in range(3))


def fibre_matrix(f: BiPoly) -> ConicPencil:
    """The pencil of the Gram matrices of A, B and C."""
    if f.bidegree != (2, 2):
        raise ValueError("fibre matrix requires bidegree (2, 2)")
    return ConicPencil(tuple(conic_gram(q) for q in conic_coefficients(f)))


def discriminant(pencil: ConicPencil) -> BinForm:
    """det M(x): a binary sextic vanishing exactly at the singular fibres."""
    return det3(pencil.entries)


# ---------------------------------------------------------------------------
# Linear algebra on 3-vectors: every matrix reduced here has three columns


def matrix_kernel(m) -> List[Tuple[object, ...]]:
    """Basis of the right kernel of a matrix with three columns over an exact
    field, by cross and dot products: the unit vectors for the zero matrix,
    `line_span` of the first nonzero row r at rank 1, and else r x s for the
    first row s off r's line, unless some row leaves that plane (rank 3)."""
    rows = [r for r in m if any(not is_zero_scalar(c) for c in r)]
    if not rows:
        return [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    r = rows[0]
    for j in range(1, len(rows)):
        normal = cross(r, rows[j])
        if any(not is_zero_scalar(c) for c in normal):
            if any(not is_zero_scalar(dot(t, normal)) for t in rows[j + 1:]):
                return []
            return [normal]
    return list(line_span(r))


def matrix_rank(m) -> int:
    return 3 - len(matrix_kernel(m))


def normalize_projective(coords):
    """Scale so the first nonzero coordinate is 1."""
    for c in coords:
        if not is_zero_scalar(c):
            inv = scalar_inv(c)
            return tuple(v * inv for v in coords)
    raise ValueError("zero coordinate vector")


def conjugate(p, q) -> bool:
    """True iff the projective points p and q are Galois conjugate.

    Normalized, the conjugates of a point p over Q[t]/(m) are p(T) at the
    roots T of m; so q is one of them iff m(T) and every p_i(T) - q_i have
    a common root, that is a nonconstant gcd over the field of q.
    """
    p, q = normalize_projective(p), normalize_projective(q)
    modulus = next((c.modulus for c in p if isinstance(c, NumberFieldElement)), None)
    if modulus is None:
        if any(isinstance(c, NumberFieldElement) for c in q):
            return conjugate(q, p)
        return p == q
    g = UniPoly(modulus)
    for pi, qi in zip(p, q):
        residue = pi.residue if isinstance(pi, NumberFieldElement) else (pi,)
        g = uv_gcd(g, UniPoly(residue) - qi)
    return g.degree >= 1


# ---------------------------------------------------------------------------
# Conic helpers (quadratic forms in y over an exact field)


def conic_coefficients(f: BiPoly) -> Tuple[AffinePoly, ...]:
    """The conics in y that multiply x0^(d1-i) x1^i in f, i = 0, ..., d1; at
    bidegree (2, 2) these are A, B, C with f = A x0^2 + B x0 x1 + C x1^2."""
    if f.bidegree[1] != 2:
        raise ValueError("requires y-degree 2")
    conics = [dict() for _ in range(f.bidegree[0] + 1)]
    for m, c in f.terms.items():
        conics[m[1]][m[2:]] = c
    return tuple(AffinePoly(Y_VARS, terms) for terms in conics)


def restrict_x(f: BiPoly, p1) -> AffinePoly:
    """Evaluate the x-variables at a P^1 point, leaving a form in y."""
    terms: Dict[Tuple[int, int, int], object] = {}
    for m, c in f.terms.items():
        v = c
        if m[0]:
            v = v * p1[0] ** m[0]
        if m[1]:
            v = v * p1[1] ** m[1]
        if is_zero_scalar(v):
            continue
        terms[m[2:]] = terms.get(m[2:], 0) + v
    return AffinePoly(Y_VARS, terms)


def conic_gram(q: AffinePoly):
    """Doubled Gram matrix G of a quadratic form q in y, y^T G y = 2 q: the
    matrix of second partials, integral on integral input."""
    g = [[0] * 3 for _ in range(3)]
    for e, c in q.terms.items():
        i, j = [k for k in range(3) for _ in range(e[k])]
        g[i][j] = g[i][j] + c
        g[j][i] = g[j][i] + c
    return tuple(tuple(row) for row in g)


def bilinear(g, u, v):
    """u^T g v for a symmetric 3x3 Gram matrix g; bilinear(g, v, v) is twice
    the value of the quadratic form at v."""
    acc = 0
    for i in range(3):
        for j in range(3):
            if not is_zero_scalar(g[i][j]):
                acc = acc + g[i][j] * u[i] * v[j]
    return acc


def polar(g, p):
    """The polar line g p of the point p for the conic with Gram matrix g;
    at a point of the conic it is the tangent line there."""
    return tuple(sum((g[i][j] * p[j] for j in range(1, 3)), g[i][0] * p[0]) for i in range(3))


def split_conic(q: AffinePoly) -> Optional[List[Tuple[object, object, object]]]:
    """Factor a nonzero conic into two lines, or None if it is irreducible.

    Lines are coefficient triples; a rank-2 conic may need one quadratic
    scalar extension.  A rank-1 conic returns the same line twice.
    """
    g = conic_gram(q)
    rank = matrix_rank(g)
    if rank == 3:
        return None
    if rank == 0:
        raise ValueError("zero conic")
    if rank == 1:
        for i in range(3):
            if not is_zero_scalar(g[i][i]):
                line = normalize_projective(g[i])
                return [line, line]
        raise AssertionError("rank-1 symmetric matrix with zero diagonal")
    # rank 2: quotient by the kernel direction and factor a binary quadratic;
    # the unit vectors off the kernel's last nonzero entry complete a basis
    kernel = matrix_kernel(g)[0]
    last = max(i for i in range(3) if not is_zero_scalar(kernel[i]))
    e_a, e_b = (tuple(int(k == i) for k in range(3)) for i in range(3) if i != last)
    alpha = bilinear(g, e_a, e_a)
    gamma = bilinear(g, e_b, e_b)
    beta = 2 * bilinear(g, e_a, e_b)
    # 2 q = alpha u^2 + beta u w + gamma w^2 in the dual coordinates (u, w)
    # the first two columns of (e_a, e_b, kernel)^-1, up to its determinant
    u_form, w_form = cross(e_b, kernel), cross(kernel, e_a)

    def combo(cu, cw):
        return normalize_projective(tuple(cu * u_form[i] + cw * w_form[i] for i in range(3)))

    if is_zero_scalar(alpha):
        return [combo(0, 1), combo(beta, gamma)]
    # roots of alpha t^2 + beta t + gamma; lines u - t_i w.  An irreducible
    # quadratic over Q yields one generator; its conjugate is -b - root.
    b = beta * scalar_inv(alpha)
    quadratic = UniPoly([gamma * scalar_inv(alpha), b, 1])
    roots = [r for r, mult in uv_roots(quadratic) for _ in range(mult)]
    if len(roots) == 1:
        roots.append(-b - roots[0])
    return [combo(1, -t) for t in roots]


def congruence(g, rows):
    """rows g rows^T: the Gram matrix of q(v * rows) if g is the Gram matrix of q."""
    return tuple(tuple(bilinear(g, a, b) for b in rows) for a in rows)


def restricted_to_line(g, v1, v2) -> BinForm:
    """Twice the restriction of the conic with Gram matrix g to the line
    {s v1 + t v2}: a binary quadratic in (s, t)."""
    return BinForm(2, [bilinear(g, v1, v1), 2 * bilinear(g, v1, v2), bilinear(g, v2, v2)])


def line_divides_conic(line, g) -> bool:
    """True iff the conic with Gram matrix g vanishes on the line Z(line)."""
    return restricted_to_line(g, *line_span(line)).is_zero()


def line_span(line):
    """Two points spanning the line with coefficient triple `line`: the unit
    vectors off its first nonzero coefficient, moved onto the line along
    that coordinate."""
    p = next((i for i in range(3) if not is_zero_scalar(line[i])), None)
    if p is None:
        raise ValueError("degenerate line")
    inv = scalar_inv(line[p])
    return tuple(tuple(-(line[i] * inv) if k == p else int(k == i) for k in range(3))
                 for i in range(3) if i != p)


# ---------------------------------------------------------------------------
# Contracted sections


def contracted_sections(pencil: ConicPencil) -> Tuple[Tuple[object, object, object], ...]:
    """All P2 in P^2 with f(., ., P2) identically zero: the common zeros of
    the conics A, B, C.

    f must be irreducible, so that A, B and C share no component (a shared
    component would divide f) and their common zeros are finitely many.
    """
    return tuple(_common_conic_points([g for g in pencil.grams if any(map(any, g))]))


def on_contracted_section(pencil: ConicPencil, p2) -> bool:
    """True iff the section P^1 x {p2} lies on f: A, B and C vanish at p2,
    evaluated in the field of p2's own coordinates."""
    return all(is_zero_scalar(bilinear(g, p2, p2)) for g in pencil.grams)


def common_component(conics) -> Optional[AffinePoly]:
    """The common component of nonzero conics: the first conic if they are
    all proportional, else a line of the first conic dividing every other
    one, else None.  For rational conics a shared line that is not the whole
    conic is rational, since its conjugate would be shared too."""
    first, rest = conics[0], conics[1:]
    if all(is_scalar_multiple(first, q) for q in rest):
        return first
    for line in split_conic(first) or ():
        if all(line_divides_conic(line, conic_gram(q)) for q in rest):
            return AffinePoly(Y_VARS, {tuple(int(i == j) for j in range(3)): line[i] for i in range(3)})
    return None


def _y2_profile(g):
    """Twice the conic with Gram matrix g as a polynomial in y2: the
    coefficients of y2^2, y2 and 1, the last two forms in (y0, y1)."""
    return g[2][2], BinForm(1, [2 * g[0][2], 2 * g[1][2]]), BinForm(2, [g[0][0], 2 * g[0][1], g[1][1]])


def _resultant_y2(g1, g2) -> BinForm:
    """Resultant with respect to y2 of twice the conics with Gram matrices g1
    and g2, with exact degree handling: a binary form in (y0, y1)."""
    a2, a1, a0 = _y2_profile(g1)
    b2, b1, b0 = _y2_profile(g2)
    deg1 = 2 if not is_zero_scalar(a2) else (1 if not a1.is_zero() else 0)
    deg2 = 2 if not is_zero_scalar(b2) else (1 if not b1.is_zero() else 0)
    if deg1 == 0:
        return a0
    if deg2 == 0:
        return b0
    if deg1 == 2 and deg2 == 2:
        # Res = (a2 b0 - b2 a0)^2 - (a2 b1 - b2 a1)(a1 b0 - b1 a0)
        r = b0 * a2 - a0 * b2
        s = b1 * a2 - a1 * b2
        return r * r - s * (a1 * b0 - b1 * a0)
    if deg1 == 1 and deg2 == 1:
        return a1 * b0 - b1 * a0
    # one linear, one quadratic
    if deg1 == 1:
        lin1, lin0, quad2, quad1, quad0 = a1, a0, b2, b1, b0
    else:
        lin1, lin0, quad2, quad1, quad0 = b1, b0, a2, a1, a0
    # Res(l1 y2 + l0, q2 y2^2 + q1 y2 + q0) = q2 l0^2 - q1 l0 l1 + q0 l1^2
    return (lin0 * lin0) * quad2 - quad1 * (lin0 * lin1) + quad0 * (lin1 * lin1)


def _common_conic_points(grams):
    """The common points of nonzero conics, by their Gram matrices, that
    share no component.

    They are solved over the roots of their projection from [0 : 0 : 1], and
    if two lie over one irrational root, from [k : k^2 : 1] for k = 1, 2, ...,
    which the shear y0 -> y0 + k y2, y1 -> y1 + k^2 y2 moves to [0 : 0 : 1].
    Two points share a root iff the centre lies on the line joining them; at
    most 6 such lines each meet the conic of centres y0^2 = y1 y2 at most
    twice, so some k <= 12 separates them.
    """
    for k in range(13):
        shear = ((1, 0, 0), (0, 1, 0), (k, k * k, 1))
        points = _projected_points([congruence(g, shear) for g in grams] if k else grams)
        if points is None:
            continue
        return list(dict.fromkeys(
            normalize_projective((p[0] + k * p[2], p[1] + k * k * p[2], p[2])) for p in points))
    raise RuntimeError("no projection centre separates the common points")


def _projected_points(grams):
    """The common points of the conics with these Gram matrices over the roots of
    their projection from [0 : 0 : 1], or None if two lie over one irrational root."""
    candidates: List[BinForm] = []
    for g in grams:
        c2, c1, c0 = _y2_profile(g)
        if is_zero_scalar(c2) and c1.is_zero():
            candidates.append(c0)
    for i in range(len(grams)):
        for j in range(i + 1, len(grams)):
            candidates.append(_resultant_y2(grams[i], grams[j]))
    candidates = [c for c in candidates if not c.is_zero()]
    if not candidates:
        raise RuntimeError("resultant system degenerated; common component expected")
    g = candidates[0]
    for c in candidates[1:]:
        g = binform_gcd(g, c)
    points = []
    if g.d >= 1:
        for (u0, u1), _mult in g.roots():
            over = _solve_y2(grams, u0, u1)
            if over is None:
                return None
            points.extend(over)
    # the centre [0,0,1] projects nowhere under (y0, y1); test it directly
    if all(is_zero_scalar(g[2][2]) for g in grams):
        points.append((0, 0, 1))
    return points


def _solve_y2(grams, u0, u1):
    """Common y2 values over the base point [u0 : u1] of all the conics, or
    None if two distinct ones lie over an irrational base point."""
    # twice each conic on the line through [u0 : u1 : 0] and the centre
    polys = [restricted_to_line(g, (u0, u1, 0), (0, 0, 1)).poly for g in grams]
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        # the line through the centre and [u0 : u1 : 0] lies on every conic
        raise RuntimeError("conics share a line; common component expected")
    h = polys[0].monic()
    for p in polys[1:]:
        h = uv_gcd(h, p)
    if isinstance(u1, NumberFieldElement) and h.degree == 2 \
            and not is_zero_scalar(h.coeffs[1] * h.coeffs[1] - 4 * h.coeffs[0]):
        return None
    return [(u0, u1, root) for root, _mult in uv_roots(h)]


# ---------------------------------------------------------------------------
# The tangent-direction map at a contracted-section point


class PhiSigmaKind(Enum):
    CONSTANT = "Constant"
    NON_CONSTANT = "NonConstant"
    UNDEFINED = "Undefined"


@dataclass(frozen=True)
class PhiSigma:
    kind: PhiSigmaKind
    line: Optional[Tuple[object, object, object]] = None  # original y-coordinates


def polar_rows(pencil: ConicPencil, p2):
    """The polar rows G_A p2, G_B p2, G_C p2 of A, B and C at a point p2 of
    a contracted section P^1 x {p2}."""
    if not on_contracted_section(pencil, p2):
        raise ValueError("p2 is not a contracted-section point")
    return [polar(g, p2) for g in pencil.grams]


def phi_sigma_constant(pencil: ConicPencil, p2) -> PhiSigma:
    """Constancy of the fibre tangent-line map along the contracted section
    P^1 x {p2}.

    The fibre over x is tangent at p2 to the polar line of its conic, a
    combination of the polar rows of A, B and C: the map is constant iff
    these rows span at most one line.
    """
    rows = polar_rows(pencil, p2)
    rank = matrix_rank(rows)
    if rank == 0:
        return PhiSigma(PhiSigmaKind.UNDEFINED)
    if rank >= 2:
        return PhiSigma(PhiSigmaKind.NON_CONSTANT)
    line = next(r for r in rows if not all(is_zero_scalar(c) for c in r))
    return PhiSigma(PhiSigmaKind.CONSTANT, normalize_projective(line))


# ---------------------------------------------------------------------------
# Ramification of a fibre line


def ramified_along(pencil: ConicPencil, p1, line) -> bool:
    """True iff the transverse x-derivative of f at the fibre over p1 vanishes
    identically on the fibre line Z(line).

    By Euler's relation p1[0] f_x0 + p1[1] f_x1 = 2 f on the fibre over p1,
    and f vanishes on the line, so every x-derivative vanishes there iff
    both partials f_x0 and f_x1 do.
    """
    if not line_divides_conic(line, pencil.evaluate(p1)):
        raise ValueError("the line is not contained in the fibre over p1")
    return all(line_divides_conic(line, g) for g in pencil.x_partials(p1))
