"""Singular loci of (2,2)-surfaces and local classification of their germs.

Singular points are found through the fibre Gram pencil: every singular point
of the surface sits over a repeated root of the discriminant sextic, at the
vertex (or on the vertex line) of its singular fibre conic.  Each singular
point's record carries its chart, the local equation at the point, and reads
its tangent cone and whether it is A1 (cone rank 3, by the Morse lemma) off
that chart; classify reads only the cone rank.  classify_local labels a germ
on request: a corank-1 germ is A_n with n read off by the splitting lemma, and
a germ of corank 2 or more is decided by the dimension of the local algebra
O/(f, grad f), computed by truncated linear algebra.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from typing import Dict, List, Optional, Tuple, Union

from .bipoly import (
    AffinePoly,
    BiPoly,
    FrameChange,
    act,
    adjugate3,
    coefficient_matrix,
    cross,
    monomial_basis,
    moved_form,
)
from .factorizer import bihomogeneous_factor
from .fibration import (
    ConicPencil,
    bilinear,
    binform_gcd,
    conic_gram,
    contracted_sections,
    discriminant,
    fibre_matrix,
    matrix_kernel,
    matrix_rank,
    normalize_projective,
    on_contracted_section,
    polar_rows,
    restrict_x,
    restricted_to_line,
)
from .scalars import UniPoly, is_zero_scalar, scalar_inv

CHART_VARS = ("x1", "y1", "y2")


Point = Tuple[Tuple[object, object], Tuple[object, object, object]]


# ---------------------------------------------------------------------------
# Charts


def completed_rows(v) -> Tuple:
    """v followed by the coordinate vectors other than the one at v's first
    nonzero entry: the rows of a matrix that sends v to [1,0,...,0]."""
    pivot = next((i for i, c in enumerate(v) if not is_zero_scalar(c)), None)
    if pivot is None:
        raise ValueError("zero coordinate vector")
    n = len(v)
    return (tuple(v),) + tuple(tuple(int(j == i) for j in range(n)) for i in range(n) if i != pivot)


def point_frame(P: Point) -> FrameChange:
    """A frame moving P to [1,0] x [1,0,0]: the first row of each matrix is
    the normalized point, the others are coordinate vectors completing it."""
    return FrameChange(*(completed_rows(normalize_projective(p)) for p in P))


def chart_local(f: BiPoly, P: Point) -> AffinePoly:
    """Local equation of the surface in the affine chart centred at P."""
    return act(point_frame(P), f).dehomogenize()


# ---------------------------------------------------------------------------
# Truncated local algebra


@dataclass(frozen=True)
class AlgebraDim:
    stabilized: bool
    value: int  # the dimension if stabilized, else the cutoff level reached

    @property
    def label(self) -> str:
        return f"Stabilized({self.value})" if self.stabilized else "NotStabilized"


class _RowSpace:
    """Incremental Gaussian elimination over sparse rows keyed by monomials."""

    def __init__(self):
        self.pivots: Dict[Tuple[int, ...], Dict[Tuple[int, ...], object]] = {}

    def insert(self, row: Dict[Tuple[int, ...], object]) -> None:
        """Reduce a row by the pivots; a nonzero remainder becomes the pivot
        of its lowest monomial."""
        row = {e: c for e, c in row.items() if not is_zero_scalar(c)}
        while row:
            lead = min(row, key=lambda e: (sum(e), e))
            pivot = self.pivots.get(lead)
            if pivot is None:
                inv = scalar_inv(row[lead])
                self.pivots[lead] = {e: c * inv for e, c in row.items()}
                return
            factor = row[lead]
            for e, c in pivot.items():
                v = row.get(e, 0) - factor * c
                if is_zero_scalar(v):
                    row.pop(e, None)
                else:
                    row[e] = v


def _shifted_row(g: AffinePoly, m, k):
    """The row of m * g truncated below total degree k."""
    return {tuple(a + b for a, b in zip(e, m)): c for e, c in g.terms.items() if sum(e) + sum(m) < k}


def _check_germ(local: AffinePoly, cutoff: int) -> None:
    if cutoff < 2:
        raise ValueError("a cutoff below 2 compares no two truncation levels")
    if not local.degree_part(0).is_zero() or not local.degree_part(1).is_zero():
        raise ValueError("the origin is not a singular point")


def local_algebra_dim(f_affine: AffinePoly, cutoff: int = 10) -> AlgebraDim:
    """Dimension of O/(f, grad f) at the origin by truncated elimination.

    Stabilization (equal dimensions at two consecutive truncation levels)
    certifies the value; reaching the cutoff without stabilizing reports a
    suspected non-isolated singularity.

    A single incremental elimination with lowest-degree pivots serves every
    truncation level at once: deleting coordinates of degree >= k kills
    exactly the pivot rows led below k, so the rank at level k is the number
    of pivots of degree < k once all rows of minimal degree < k are inserted.
    """
    _check_germ(f_affine, cutoff)
    gens = [f_affine] + [f_affine.partial(v) for v in f_affine.vars]
    nvars = len(f_affine.vars)
    kmax = cutoff + 1
    mons = [m for d in range(kmax) for m in monomial_basis(nvars, d)[0]]
    batches: Dict[int, List[Dict[Tuple[int, ...], object]]] = {}
    for g in gens:
        if g.is_zero():
            continue
        low = min(sum(e) for e in g.terms)
        for m in mons:
            d = sum(m) + low
            if d >= kmax:
                continue
            batches.setdefault(d, []).append(_shifted_row(g, m, kmax))
    mons_below = [0] * (kmax + 1)
    for e in mons:
        for k in range(sum(e) + 1, kmax + 1):
            mons_below[k] += 1
    space = _RowSpace()
    inserted = 0
    prev = None
    for k in range(2, kmax + 1):
        while inserted < k:
            for row in batches.get(inserted, ()):
                space.insert(row)
            inserted += 1
        npiv = sum(1 for lead in space.pivots if sum(lead) < k)
        dim = mons_below[k] - npiv
        if prev is not None and dim == prev:
            return AlgebraDim(True, dim)
        prev = dim
    return AlgebraDim(False, cutoff)


# ---------------------------------------------------------------------------
# Local type


@dataclass(frozen=True)
class LocalType:
    kind: str  # "An" | "OtherIsolated" | "NonIsolatedSuspected"
    n: Optional[int] = None
    cutoff: Optional[int] = None

    @property
    def label(self) -> str:
        if self.kind == "An":
            return f"A{self.n}"
        if self.kind == "NonIsolatedSuspected":
            return f"NonIsolatedSuspected({self.cutoff})"
        return self.kind


def _splitting_type(local: AffinePoly, gram, cutoff: int) -> LocalType:
    """A corank-1 germ's type by the splitting lemma (see classify_local)."""
    _check_germ(local, cutoff)
    # chart coordinates (w, u, v) with the cone's kernel as the w-axis
    f = moved_form(completed_rows(matrix_kernel(gram)[0]), local)
    grad = (f.partial(f.vars[1]), f.partial(f.vars[2]))
    a, b, d = (f.coefficient(e) for e in ((0, 2, 0), (0, 1, 1), (0, 0, 2)))
    inv = scalar_inv(4 * a * d - b * b)
    step = ((2 * d * inv, -b * inv), (-b * inv, 2 * a * inv))  # the inverse (u, v) Hessian
    # The critical locus grad_(u,v) f = 0 is O(w^2) and each chord step
    # with the constant Hessian gains one order; an error O(w^m) in it
    # moves f on it only by O(w^2m), since the (u, v)-gradient vanishes there.
    w, u, v = UniPoly.gen(), UniPoly(), UniPoly()
    order = 2  # the series u(w) and v(w) are exact mod w^order
    while True:
        top = min(2 * order, cutoff + 2)
        g = f.evaluate((w, u, v)).coeffs[:top]  # f has no constant term
        n = next((i for i, c in enumerate(g) if not is_zero_scalar(c)), None)
        if n is not None:
            return LocalType("An", n - 1)
        if top == cutoff + 2:
            return LocalType("NonIsolatedSuspected", cutoff=cutoff)
        order += 1
        fu, fv = (p.evaluate((w, u, v)) for p in grad)
        u, v = (UniPoly((x - fu * s - fv * t).coeffs[:order]) for x, (s, t) in zip((u, v), step))


def classify_local(local: AffinePoly, cutoff: int = 10) -> LocalType:
    """The germ's type from the rank of its tangent cone, a ternary quadratic
    form.  Rank 3 is A1.  At rank 2 (corank 1) the splitting lemma makes f
    right-equivalent to q(u, v) + g(w), g being f on its critical locus in the
    cone's nondegenerate directions, so the germ is A_n with n = ord g - 1
    (Greuel, Lossen and Shustin, Introduction to Singularities and
    Deformations, Thm I.2.47; Arnold, Gusein-Zade and Varchenko I, section
    11).  There `cutoff` is the series order: g is computed mod w^(cutoff + 2),
    and g = 0 there is NonIsolatedSuspected(cutoff).  At rank <= 1 the local
    algebra must stabilize by truncation degree cutoff + 1 (OtherIsolated) or
    the germ is NonIsolatedSuspected(cutoff).  The two bounds agree: an A_n
    germ's local algebra stabilizes at degree n + 1, so A_n needs n <= cutoff.
    """
    gram = conic_gram(local.degree_part(2))
    rank = matrix_rank(gram)
    if rank == 3:
        return LocalType("An", 1)
    if rank == 2:
        return _splitting_type(local, gram, cutoff)
    if not local_algebra_dim(local, cutoff).stabilized:
        return LocalType("NonIsolatedSuspected", cutoff=cutoff)
    return LocalType("OtherIsolated")


# ---------------------------------------------------------------------------
# Singular locus


@dataclass(frozen=True)
class HorizontalSection:
    p2: Tuple[object, object, object]


@dataclass(frozen=True)
class FibreLine:
    p1: Tuple[object, object]
    line: Tuple[object, object, object]


@dataclass(frozen=True)
class FibreConic:
    p1: Tuple[object, object]


@dataclass(frozen=True)
class PlaneCurveImage:
    description: str


CurveComponent = Union[HorizontalSection, FibreLine, FibreConic, PlaneCurveImage]


@dataclass(frozen=True)
class SingularPointRecord:
    point: Point
    local: AffinePoly  # the local equation in the chart centred at the point
    # the support line of the fibre conic over the point when it is a double
    # line (rank 1), else None (rank 2, the point being its vertex)
    fibre_line: Optional[Tuple[object, object, object]]

    @property
    def tangent_cone(self) -> AffinePoly:
        return self.local.degree_part(2)

    @property
    def is_a1(self) -> bool:
        """A1 exactly when the tangent cone has rank 3, by the Morse lemma."""
        return matrix_rank(conic_gram(self.tangent_cone)) == 3


@dataclass(frozen=True)
class SingularLocus:
    isolated_points: Tuple[SingularPointRecord, ...]
    curve_components: Tuple[CurveComponent, ...]
    # The points of P^2 whose section P^1 x {p2} lies on the surface, and the
    # fibre pencil that the locus was read from; () and None if f is reducible.
    section_points: Tuple[Tuple[object, object, object], ...] = ()
    pencil: Optional[ConicPencil] = None

    @property
    def is_smooth(self) -> bool:
        return not self.isolated_points and not self.curve_components


def singular_locus(f: BiPoly, factors=None) -> SingularLocus:
    if f.is_zero():
        raise ValueError("the zero polynomial has no singular locus")
    if factors is None:
        factors = bihomogeneous_factor(f)
    if len(factors) >= 2:
        return _singular_locus_reducible(f, factors)
    return _singular_locus_irreducible(f)


def _singular_locus_irreducible(f: BiPoly) -> SingularLocus:
    pencil = fibre_matrix(f)
    disc = discriminant(pencil)
    points: List[Tuple[Point, object]] = []
    components: List[CurveComponent] = []
    if disc.is_zero():
        components.append(_vertex_curve(pencil))
        fibres = _rank_one_fibres(pencil)
    else:
        # Only a repeated root can carry a singular point.  Jacobi: disc' =
        # tr(adj M . M').  At rank <= 1, adj M = 0, so t0 is repeated.  At rank 2
        # with kernel v, adj M = c v v^T, c != 0, so disc'(t0) = c v^T M'(t0) v
        # = 2c f_t(t0, v) as y^T M y = 2f: the vertex v, the fibre's one
        # candidate, is singular iff t0 is repeated.
        fibres = [p1pt for p1pt, mult in disc.roots() if mult > 1]
    for p1pt in fibres:
        pts, comps = _fibre_singularities(pencil, p1pt)
        points.extend(pts)
        components.extend(comps)
    # whole contracted sections inside the singular locus.  Along P^1 x {p2}
    # the x-partials vanish identically and the y-partials are M(x) p2, so
    # the section is singular iff every polar row vanishes.
    section_points = contracted_sections(pencil)
    for p2 in section_points:
        if matrix_rank(polar_rows(pencil, p2)) == 0:
            components.append(HorizontalSection(p2))
    unique_components = tuple(dict.fromkeys(components))
    # Of the curves of an irreducible locus only a horizontal section can
    # hold a listed point: a fibre line's fibre lists no points.  A point lies
    # on one iff it is a singular point of A, B and C, the test above read in
    # the point's own field, so its Galois orbit needs no matching.
    sections = any(isinstance(c, HorizontalSection) for c in unique_components)
    records = {}
    for P, line in points:
        P = (normalize_projective(P[0]), normalize_projective(P[1]))
        if P in records or (sections and on_contracted_section(pencil, P[1])
                            and matrix_rank(polar_rows(pencil, P[1])) == 0):
            continue
        records[P] = SingularPointRecord(P, chart_local(f, P), line)
    return SingularLocus(tuple(records.values()), unique_components, section_points, pencil)


def _vertex_curve(pencil: ConicPencil) -> CurveComponent:
    """The curve of singular points of an identically singular pencil.

    For irreducible f the generic fibre has rank 2, so its vertex is a point
    c(x) of P^2 over K = Q(x1/x0), and every x-derivative of f vanishes
    there: f(x, c(x)) = 0 and grad_y f(x, c(x)) = M(x) c(x) = 0, so by the
    chain rule d/dx_i f(x, c(x)) = f_xi(x, c(x)) = 0.  (Over K the fibre is
    a u^2 + b v^2 with vertex u = v = 0; see Beauville, Varietes de Prym et
    jacobiennes intermediaires, Ann. ENS 1977, section 1.)  The vertices
    thus sweep a curve of singular points.  It is the horizontal section
    through p2 when A, B and C share the singular point p2, the kernel of
    their stacked Gram matrices (at most a point for irreducible f), and
    otherwise the image of the moving vertex x -> ker M(x).
    """
    kernel = matrix_kernel([row for g in pencil.grams for row in g])
    if kernel:
        return HorizontalSection(normalize_projective(kernel[0]))
    return PlaneCurveImage("image of the fibre-vertex section x -> ker M(x)")


def _rank_one_fibres(pencil) -> List[Tuple[object, object]]:
    """The fibres of rank at most one of an identically singular pencil: the
    roots of the gcd of the adjugate's entries, which vanish exactly there."""
    g = reduce(binform_gcd, (b for row in adjugate3(pencil.entries) for b in row))
    return [p1pt for p1pt, _mult in g.roots()] if g.d >= 1 else []


def _fibre_singularities(pencil: ConicPencil, p1pt):
    """The singular points of the fibre over p1pt, each with its fibre's
    double line or None, and the fibre line when the whole line is singular:
    f_x0 and f_x1 vanish on it, which is to say the fibre is ramified there."""
    m = pencil.evaluate(p1pt)
    kernel = matrix_kernel(m)
    rank = 3 - len(kernel)
    points: List[Tuple[Point, object]] = []
    components: List[CurveComponent] = []
    if rank == 3:
        return points, components
    if rank == 2:
        vertex = normalize_projective(kernel[0])
        if all(is_zero_scalar(bilinear(d, vertex, vertex)) for d in pencil.x_partials(p1pt)):
            points.append(((p1pt, vertex), None))
        return points, components
    if rank == 1:
        # double-line fibre: the whole kernel plane is fibre-singular, and
        # each nonzero row of the rank-1 matrix is the line
        line = normalize_projective(next(r for r in m if any(not is_zero_scalar(c) for c in r)))
        v1, v2 = kernel
        q0, q1 = (restricted_to_line(d, v1, v2) for d in pencil.x_partials(p1pt))
        if q0.is_zero() and q1.is_zero():
            components.append(FibreLine(p1pt, line))
            return points, components
        g = binform_gcd(q0, q1)
        for (s, t), _mult in g.roots():
            if not is_zero_scalar(s):
                points.append(((p1pt, tuple(a + t * b for a, b in zip(v1, v2))), line))
        # the root [0, 1] of the line's parameter is v2 itself
        if g.d > g.poly.degree:
            points.append(((p1pt, tuple(v2)), line))
        return points, components
    raise ValueError("identically zero fibre: the polynomial is reducible")


def _singular_locus_reducible(f: BiPoly, factors) -> SingularLocus:
    # bihomogeneous_factor repeats one normalized factor per multiplicity, and
    # its distinct factors are never scalar multiples of each other
    counted = Counter(factors)
    components: List[CurveComponent] = [
        PlaneCurveImage(f"non-reduced component of bidegree {bd}: {fac!r}")
        for (bd, fac), mult in counted.items() if mult >= 2]
    for e1, e2 in combinations(counted, 2):
        comp = _pair_intersection(e1, e2)
        if comp is not None:
            components.append(comp)
    return SingularLocus((), tuple(components))


def _pair_intersection(e1, e2) -> Optional[CurveComponent]:
    (bd1, f1), (bd2, f2) = e1, e2
    if bd2 == (1, 0) and bd1 != (1, 0):
        bd1, f1, bd2, f2 = bd2, f2, bd1, f1
    if bd1 == (1, 0) and bd2 == (1, 0):
        return None  # distinct fibre planes are disjoint
    if bd1 == (1, 0):
        p1pt = normalize_projective(x_linear_root(f1))
        rest = restrict_x(f2, p1pt)
        if rest.is_zero():
            return PlaneCurveImage("factor vanishes on the whole fibre plane")
        if rest.total_degree() == 1 or (bd2[1] == 1):
            line = tuple(rest.coefficient(tuple(int(i == j) for j in range(3))) for i in range(3))
            return FibreLine(p1pt, normalize_projective(line))
        return FibreConic(p1pt)
    if bd1 == (0, 1) and bd2 == (0, 1):
        p2 = cross(coefficient_matrix(f1)[0], coefficient_matrix(f2)[0])
        if any(not is_zero_scalar(c) for c in p2):
            return HorizontalSection(normalize_projective(p2))
        return PlaneCurveImage("coincident plane sections")
    return PlaneCurveImage(
        f"intersection curve of bidegree-{bd1} and bidegree-{bd2} components"
    )


def x_linear_root(fac: BiPoly):
    """The root (c1, -c0) in P^1 of a form c0*x0 + c1*x1 of bidegree (1, 0)."""
    (c0,), (c1,) = coefficient_matrix(fac)
    return (c1, -c0)
