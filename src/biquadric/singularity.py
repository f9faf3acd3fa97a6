"""Singular loci of (2,2)-surfaces and local classification of their germs.

Singular points are found through the fibre Gram pencil: every singular point
of the surface sits over a root of the discriminant sextic, at the vertex (or
on the vertex line) of its singular fibre conic.  Local germs are classified
by the rank of the tangent cone and the dimension of the local algebra
O/(f, grad f) computed by truncated linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .bipoly import (
    AffinePoly,
    BiPoly,
    FrameChange,
    act,
    adjugate3,
    det3,
    is_scalar_multiple,
)
from .factorizer import bihomogeneous_factor
from .fibration import (
    BinForm,
    binform_gcd,
    conic_gram,
    contracted_sections,
    CurveOfSections,
    discriminant,
    fibre_matrix,
    matrix_kernel,
    matrix_rank,
    normalize_projective,
    polar_rows,
    proportional,
    restrict_x,
)
from .scalars import (
    UniPoly,
    is_zero_scalar,
    scalar_inv,
    uv_gcd,
    uv_roots,
)

CHART_VARS = ("x1", "y1", "y2")


Point = Tuple[Tuple[object, object], Tuple[object, object, object]]


# ---------------------------------------------------------------------------
# Charts and tangent cones


def point_frame(P: Point) -> FrameChange:
    """A frame moving P to [1,0] x [1,0,0]: the first row of each matrix is
    the normalized point, the others are coordinate vectors completing it."""
    p1, p2 = (normalize_projective(p) for p in P)
    x_rows = (p1, (0, 1) if not is_zero_scalar(p1[0]) else (1, 0))
    pivot = next(i for i in range(3) if not is_zero_scalar(p2[i]))
    y_rows = (p2,) + tuple(tuple(int(j == i) for j in range(3)) for i in range(3) if i != pivot)
    return FrameChange(x_rows, y_rows)


def chart_local(f: BiPoly, P: Point) -> AffinePoly:
    """Local equation of the surface in the affine chart centred at P."""
    return act(point_frame(P), f).dehomogenize((0, 0))


def tangent_cone(f: BiPoly, P: Point) -> AffinePoly:
    local = chart_local(f, P)
    if not local.degree_part(0).is_zero():
        raise ValueError("the point is not on the surface")
    if not local.degree_part(1).is_zero():
        raise ValueError("the point is not singular")
    return local.degree_part(2)


def hessian_det(cone: AffinePoly):
    """Determinant of the matrix of second partials of a ternary quadratic
    form: that matrix is twice the Gram matrix."""
    return 8 * det3(conic_gram(cone))


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
                v = row.get(e, Fraction(0)) - factor * c
                if is_zero_scalar(v):
                    row.pop(e, None)
                else:
                    row[e] = v


def _monomials_below(nvars: int, k: int):
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 1:
            for d in range(budget + 1):
                out.append(tuple(prefix + [d]))
            return
        for d in range(budget + 1):
            rec(prefix + [d], remaining - 1, budget - d)

    rec([], nvars, k - 1)
    return [e for e in out if sum(e) < k]


def _shifted_row(g: AffinePoly, m, k):
    """The row of m * g truncated below total degree k."""
    return {tuple(a + b for a, b in zip(e, m)): c for e, c in g.terms.items() if sum(e) + sum(m) < k}


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
    if cutoff < 2:
        raise ValueError("a cutoff below 2 compares no two truncation levels")
    if not f_affine.degree_part(0).is_zero() or not f_affine.degree_part(1).is_zero():
        raise ValueError("the origin is not a singular point")
    gens = [f_affine] + [f_affine.partial(v) for v in f_affine.vars]
    nvars = len(f_affine.vars)
    kmax = cutoff + 1
    mons = _monomials_below(nvars, kmax)
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

    @property
    def is_a1(self) -> bool:
        return self.kind == "An" and self.n == 1


def classify_local(local: AffinePoly, cutoff: int = 10) -> LocalType:
    """The germ's type from the rank of its tangent cone, a ternary quadratic
    form: rank 3 is A1, and an isolated germ of rank 2 (corank 1) is A_n with
    n the dimension of its local algebra."""
    rank = matrix_rank(conic_gram(local.degree_part(2)))
    if rank == 3:
        return LocalType("An", 1)
    alg = local_algebra_dim(local, cutoff)
    if not alg.stabilized:
        return LocalType("NonIsolatedSuspected", cutoff=cutoff)
    if rank == 2:
        return LocalType("An", alg.value)
    return LocalType("OtherIsolated")


def classify_singularity(f: BiPoly, P: Point, cutoff: int = 10) -> LocalType:
    return classify_local(chart_local(f, P), cutoff)


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
    local_type: LocalType
    tangent_cone: AffinePoly
    fibre_rank: int  # rank of the fibre conic over the point's P^1 coordinate


@dataclass(frozen=True)
class SingularLocus:
    isolated_points: Tuple[SingularPointRecord, ...]
    curve_components: Tuple[CurveComponent, ...]
    # The points of P^2 whose section P^1 x {p2} lies on the surface; empty
    # for reducible input.
    section_points: Tuple[Tuple[object, object, object], ...] = ()

    @property
    def is_smooth(self) -> bool:
        return not self.isolated_points and not self.curve_components


def singular_locus(f: BiPoly, cutoff: int = 10, factors=None) -> SingularLocus:
    if f.is_zero():
        raise ValueError("the zero polynomial has no singular locus")
    if factors is None:
        factors = bihomogeneous_factor(f)
    if len(factors) >= 2:
        return _singular_locus_reducible(f, factors)
    return _singular_locus_irreducible(f, cutoff)


def _singular_locus_irreducible(f: BiPoly, cutoff: int) -> SingularLocus:
    pencil = fibre_matrix(f)
    disc = discriminant(pencil)
    fx0 = f.partial("x0")
    fx1 = f.partial("x1")
    points: List[Point] = []
    components: List[CurveComponent] = []
    if not disc.is_zero():
        for (p1pt, _mult) in disc.roots():
            pts, comps = _fibre_singularities(f, pencil, fx0, fx1, p1pt)
            points.extend(pts)
            components.extend(comps)
    else:
        pts, comps = _degenerate_pencil_locus(f, pencil, fx0, fx1)
        points.extend(pts)
        components.extend(comps)
    # whole contracted sections inside the singular locus
    cs = contracted_sections(f)
    if isinstance(cs, CurveOfSections):
        raise ValueError("a curve of contracted sections certifies reducibility")
    # Along P^1 x {p2} the x-partials vanish identically and the y-partials
    # are M(x) p2, so the section is singular iff every polar row vanishes.
    for p2 in cs.points:
        if matrix_rank(polar_rows(f, p2)) == 0:
            components.append(HorizontalSection(p2))
    unique_components = []
    for comp in components:
        if comp not in unique_components:
            unique_components.append(comp)
    unique_points = []
    for P in points:
        P = (normalize_projective(P[0]), normalize_projective(P[1]))
        if P in unique_points:
            continue
        if any(_point_on_component(P, comp) for comp in unique_components):
            continue
        unique_points.append(P)
    records = tuple(_make_record(f, P, cutoff, pencil) for P in unique_points)
    return SingularLocus(records, tuple(unique_components), cs.points)


def _point_on_component(P: Point, comp: CurveComponent) -> bool:
    p1, p2 = P
    try:
        if isinstance(comp, HorizontalSection):
            return proportional(p2, comp.p2)
        if isinstance(comp, FibreLine):
            if not proportional(p1, comp.p1):
                return False
            dot = sum((comp.line[i] * p2[i] for i in range(3)), Fraction(0))
            return is_zero_scalar(dot)
        if isinstance(comp, FibreConic):
            return proportional(p1, comp.p1)
    except ValueError:
        # coordinates over unrelated number fields never coincide here
        return False
    return False


def _make_record(f: BiPoly, P: Point, cutoff: int, pencil) -> SingularPointRecord:
    local = chart_local(f, P)
    return SingularPointRecord(P, classify_local(local, cutoff), local.degree_part(2),
                               matrix_rank(pencil.evaluate(P[0])))


def _fibre_singularities(f, pencil, fx0, fx1, p1pt):
    m = pencil.evaluate(p1pt)
    rank = matrix_rank(m)
    points: List[Point] = []
    components: List[CurveComponent] = []
    if rank == 3:
        return points, components
    if rank == 2:
        vertex = normalize_projective(matrix_kernel(m)[0])
        if all(
            is_zero_scalar(g.evaluate(p1pt, vertex)) for g in (fx0, fx1)
        ):
            points.append((p1pt, vertex))
        return points, components
    if rank == 1:
        # double-line fibre: the whole kernel plane is fibre-singular
        line = None
        for row in m:
            if any(not is_zero_scalar(c) for c in row):
                line = normalize_projective(row)
                break
        v1, v2 = matrix_kernel(m)
        q0 = _restricted_to_line(restrict_x(fx0, p1pt), v1, v2)
        q1 = _restricted_to_line(restrict_x(fx1, p1pt), v1, v2)
        if q0.is_zero() and q1.is_zero():
            components.append(FibreLine(p1pt, line))
            return points, components
        g = uv_gcd(q0, q1) if (not q0.is_zero() and not q1.is_zero()) else (q1 if q0.is_zero() else q0)
        for t, _mult in uv_roots(g):
            y = tuple(a + t * b for a, b in zip(v1, v2))
            points.append((p1pt, y))
        # parameter at infinity corresponds to v2 itself
        if _binary_quadratic_vanishes_at_infinity(q0, q1):
            points.append((p1pt, tuple(v2)))
        return points, components
    raise ValueError("identically zero fibre: the polynomial is reducible")


def _restricted_to_line(conic: AffinePoly, v1, v2) -> UniPoly:
    """Restrict a conic in y to the line {v1 + t v2}: a quadratic in t."""
    point = lambda t: [a + t * b for a, b in zip(v1, v2)]
    c0 = conic.evaluate(point(Fraction(0)))
    c_at_1 = conic.evaluate(point(Fraction(1)))
    c_at_m1 = conic.evaluate(point(Fraction(-1)))
    a = (c_at_1 + c_at_m1 - 2 * c0) * Fraction(1, 2)
    b = (c_at_1 - c_at_m1) * Fraction(1, 2)
    return UniPoly([c0, b, a])


def _binary_quadratic_vanishes_at_infinity(q0: UniPoly, q1: UniPoly) -> bool:
    def lead2(q):
        return q.coeffs[2] if len(q.coeffs) > 2 else Fraction(0)

    return is_zero_scalar(lead2(q0)) and is_zero_scalar(lead2(q1))


def _degenerate_pencil_locus(f, pencil, fx0, fx1):
    """Identically singular pencil (the discriminant vanishes): the kernel of
    M(x) varies as a section x -> c(x), given by an adjugate column."""
    points: List[Point] = []
    components: List[CurveComponent] = []
    adj = adjugate3(pencil.entries)
    column = None
    for j in range(3):
        col = tuple(adj[i][j] for i in range(3))
        if any(not b.is_zero() for b in col):
            column = col
            break
    if column is None:
        raise ValueError("fibre rank at most one everywhere: the polynomial is reducible")
    column = _remove_binform_content(column)
    g0 = _substitute_section(fx0, column)
    g1 = _substitute_section(fx1, column)
    if g0.is_zero() and g1.is_zero():
        if _section_constant(column):
            p2 = _section_value_anywhere(column)
            components.append(HorizontalSection(p2))
        else:
            components.append(
                PlaneCurveImage("image of the fibre-vertex section x -> ker M(x)")
            )
    else:
        g = binform_gcd(g0, g1)
        if g.d >= 1:
            for (p1pt, _mult) in g.roots():
                y = tuple(b.evaluate(p1pt) for b in column)
                if any(not is_zero_scalar(c) for c in y):
                    points.append((p1pt, y))
                else:
                    pts, comps = _fibre_singularities(f, pencil, fx0, fx1, p1pt)
                    points.extend(pts)
                    components.extend(comps)
    # rank-one fibres are not covered by the adjugate section
    entry_gcd = None
    for row in adj:
        for b in row:
            if not b.is_zero():
                entry_gcd = b if entry_gcd is None else binform_gcd(entry_gcd, b)
    if entry_gcd is not None and entry_gcd.d >= 1:
        for (p1pt, _mult) in entry_gcd.roots():
            pts, comps = _fibre_singularities(f, pencil, fx0, fx1, p1pt)
            points.extend(pts)
            components.extend(comps)
    return points, components


def _remove_binform_content(column):
    g = None
    for b in column:
        if not b.is_zero():
            g = b if g is None else binform_gcd(g, b)
    if g is None or g.d == 0:
        return column
    return tuple(_binform_divide(b, g) for b in column)


def _binform_divide(a: BinForm, g: BinForm) -> BinForm:
    if a.is_zero():
        return BinForm(a.d - g.d)
    q, r = a.poly.divmod(g.poly)
    if not r.is_zero():
        raise ValueError("binary form division is not exact")
    if a.d - a.poly.degree < g.d - g.poly.degree:
        raise ValueError("binary form division is not exact at infinity")
    return BinForm(a.d - g.d, q)


def _substitute_section(fx: BiPoly, column) -> BinForm:
    """Substitute y -> column(x) into a bidegree-(1,2) form."""
    deg = fx.bidegree[0] + 2 * column[0].d
    acc = BinForm(deg)
    for m, c in fx.terms.items():
        term = BinForm(fx.bidegree[0], [0] * m[1] + [c] + [0] * (fx.bidegree[0] - m[1]))
        for j in range(3):
            for _ in range(m[2 + j]):
                term = term * column[j]
        acc = acc + term
    return acc


def _section_constant(column) -> bool:
    """True iff the section x -> [c0(x) : c1(x) : c2(x)] is a constant point."""
    for i in range(3):
        for j in range(i + 1, 3):
            # projective constancy: all 2x2 Wronskian-type minors vanish
            ci, cj = column[i].poly, column[j].poly
            if not (ci * cj.derivative() - cj * ci.derivative()).is_zero():
                return False
    return True


def _section_value_anywhere(column):
    for candidate in ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), (Fraction(1), Fraction(2))):
        val = tuple(b.evaluate(candidate) for b in column)
        if any(not is_zero_scalar(c) for c in val):
            return normalize_projective(val)
    raise ValueError("zero section")


def _singular_locus_reducible(f: BiPoly, factors) -> SingularLocus:
    components: List[CurveComponent] = []
    seen = []
    counted = []
    for bd, fac in factors:
        matched = False
        for entry in counted:
            if entry[1] == fac or _same_factor(entry[1], fac):
                entry[2] += 1
                matched = True
                break
        if not matched:
            counted.append([bd, fac, 1])
    for bd, fac, mult in counted:
        if mult >= 2:
            components.append(
                PlaneCurveImage(f"non-reduced component of bidegree {bd}: {fac!r}")
            )
    for i in range(len(counted)):
        for j in range(i + 1, len(counted)):
            comp = _pair_intersection(counted[i], counted[j])
            if comp is not None:
                components.append(comp)
    return SingularLocus((), tuple(components))


def _same_factor(a: BiPoly, b: BiPoly) -> bool:
    try:
        return is_scalar_multiple(a, b)
    except ValueError:
        return False


def _pair_intersection(e1, e2) -> Optional[CurveComponent]:
    (bd1, f1, _), (bd2, f2, _) = e1, e2
    if bd2 == (1, 0) and bd1 != (1, 0):
        bd1, f1, bd2, f2 = bd2, f2, bd1, f1
    if bd1 == (1, 0) and bd2 == (1, 0):
        return None  # distinct fibre planes are disjoint
    if bd1 == (1, 0):
        p1pt = _x_linear_root(f1)
        rest = restrict_x(f2, p1pt)
        if rest.is_zero():
            return PlaneCurveImage("factor vanishes on the whole fibre plane")
        if rest.total_degree() == 1 or (bd2[1] == 1):
            line = tuple(rest.coefficient(tuple(int(i == j) for j in range(3))) for i in range(3))
            return FibreLine(p1pt, normalize_projective(line))
        return FibreConic(p1pt)
    if bd1 == (0, 1) and bd2 == (0, 1):
        l1 = y_linear_coeffs(f1)
        l2 = y_linear_coeffs(f2)
        kernel = matrix_kernel((l1, l2, (0, 0, 0)))
        if len(kernel) == 1:
            return HorizontalSection(normalize_projective(kernel[0]))
        return PlaneCurveImage("coincident plane sections")
    return PlaneCurveImage(
        f"intersection curve of bidegree-{bd1} and bidegree-{bd2} components"
    )


def _x_linear_root(fac: BiPoly):
    c0 = fac.coefficient((1, 0, 0, 0, 0))
    c1 = fac.coefficient((0, 1, 0, 0, 0))
    # root of c0 x0 + c1 x1
    return normalize_projective((c1, -c0))


def y_linear_coeffs(fac: BiPoly):
    """The coefficients of y0, y1, y2 in a form of bidegree (0, 1)."""
    return tuple(
        fac.coefficient((0, 0) + tuple(int(i == j) for j in range(3))) for i in range(3)
    )
