"""Stability verdicts for (2,2)-forms under SL(2) x SL(3), with checkable
one-parameter-subgroup certificates.

The decision procedure is exact and finite: the singular locus, the fibre
geometry over its points, and the contracted-section tangent map together
determine the verdict.  Every non-stable verdict carries a certificate (a
coordinate frame plus a normalized weight) whose claimed sign of the
Hilbert-Mumford value is re-verified by direct computation before the verdict
is returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from .bipoly import (
    BiPoly,
    FrameChange,
    act,
    coefficient_matrix,
    cross,
    det2,
    det3,
    dot,
    moved_terms,
)
from .factorizer import Factor, bihomogeneous_factor
from .fibration import (
    BinForm,
    PhiSigmaKind,
    bilinear,
    binform_gcd,
    conic_coefficients,
    conic_gram,
    conjugate,
    line_divides_conic,
    line_span,
    matrix_rank,
    normalize_projective,
    on_contracted_section,
    phi_sigma_constant,
    polar,
    ramified_along,
    restrict_x,
    restricted_to_line,
    split_conic,
)
from .oneps import Weight, mu
from .scalars import format_scalar, is_zero_scalar, primitive_integers
from .singularity import (
    FibreLine,
    HorizontalSection,
    Point,
    SingularLocus,
    completed_rows,
    singular_locus,
    x_linear_root,
)
from .weightlp import find_destabilizing_weight


class MuSign(Enum):
    POSITIVE = "Positive"
    ZERO = "Zero"


# Each clause's witness: the normalized weight that annihilates (or freezes)
# the clause's normal form, and the sign of its Hilbert-Mumford value there.
# A Positive witness proves instability, a Zero one non-stability.  The order
# is the order in which the checks below test the clauses.
CLAUSES = {
    # semi-stability of an irreducible surface
    "ConePullback": (Weight((-4, 4), (-10, 5, 5)), MuSign.POSITIVE),
    "RamifiedDoubleFibre": (Weight((-3, 3), (-2, -2, 4)), MuSign.POSITIVE),
    "RamifiedComponentWithContractedSection":
        (Weight((-2, 2), (-5, -1, 6)), MuSign.POSITIVE),
    "SingularSection": (Weight((-1, 1), (-4, 2, 2)), MuSign.POSITIVE),
    # stability of an irreducible semi-stable surface
    "ConstantTangentMap": (Weight((0, 0), (-1, 0, 1)), MuSign.ZERO),
    "NonA1OnContractedSection": (Weight((-1, 1), (-2, 0, 2)), MuSign.ZERO),
    "NonA1NonReducedFibre": (Weight((-1, 1), (-1, 0, 1)), MuSign.ZERO),
    # reducible surfaces, one clause per case
    "PlaneFactor": (Weight((-1, 1), (-3, -1, 4)), MuSign.POSITIVE),
    "SmoothIntersectionConic": (Weight((-2, 2), (-1, 0, 1)), MuSign.ZERO),
    "SingularIntersectionConic": (Weight((-3, 3), (-2, -2, 4)), MuSign.POSITIVE),
    "CommonFibre": (Weight((-3, 3), (-2, -2, 4)), MuSign.POSITIVE),
    "DistinctFibres": (Weight((-1, 1), (-2, 0, 2)), MuSign.ZERO),
    "NonReducedVerticalPart": (Weight((-3, 3), (-2, -2, 4)), MuSign.POSITIVE),
    "IrreducibleConicCylinder": (Weight((-2, 2), (-1, 0, 1)), MuSign.ZERO),
}


@dataclass(frozen=True)
class Certificate:
    """A frame and weight whose Hilbert-Mumford value has a claimed sign.

    Positive sign demonstrates instability; Zero sign (with the nonzero
    limit that it implies) demonstrates non-stability.
    """

    frame: FrameChange
    weight: Weight
    claimed_mu_sign: MuSign

    def verify(self, f: BiPoly) -> bool:
        return self.holds(act(self.frame, f))

    def holds(self, moved: BiPoly) -> bool:
        """`verify` on f already moved to the frame: the weight is nontrivial
        and normalized, and mu has the claimed sign."""
        # mu is 0 for the trivial weight, so it would "verify" any Zero claim
        if self.weight.is_trivial or not self.weight.is_normalized:
            return False
        value = mu(moved, self.weight)
        if self.claimed_mu_sign is MuSign.POSITIVE:
            return value > 0
        return value == 0


class StabilityClass(Enum):
    STABLE = "Stable"
    STRICTLY_SEMISTABLE = "StrictlySemistable"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class ConditionRecord:
    subject: str
    clause: str
    violated: bool

    @property
    def weight(self) -> Optional[Weight]:
        """The witness weight of a violated clause."""
        return CLAUSES[self.clause][0] if self.violated else None


@dataclass(frozen=True)
class Verdict:
    stability: StabilityClass
    certificate: Optional[Certificate]
    condition_report: Tuple[ConditionRecord, ...]


class _Checks:
    """The condition report of one classification and the certificate of its
    first violated clause."""

    def __init__(self, f: BiPoly):
        self.f = f
        self.records: List[ConditionRecord] = []
        self.cert: Optional[Certificate] = None

    def note(self, subject: str, clause: str, violated: bool, flag: Flag) -> None:
        """Record one clause.  The first violated clause frames its flag and
        keeps the certificate of its witness, verified."""
        self.records.append(ConditionRecord(subject, clause, violated))
        if violated and self.cert is None:
            weight, sign = CLAUSES[clause]
            self.cert = Certificate(normalize_frame(self.f, flag), weight, sign)
            if not self.cert.verify(self.f):
                raise RuntimeError(
                    f"internal error: certificate {weight} fails to verify")

    def verdict(self) -> Verdict:
        """The class read off the kept certificate's sign."""
        if self.cert is None:
            stability = StabilityClass.STABLE
        elif self.cert.claimed_mu_sign is MuSign.POSITIVE:
            stability = StabilityClass.UNSTABLE
        else:
            stability = StabilityClass.STRICTLY_SEMISTABLE
        return Verdict(stability, self.cert, tuple(self.records))


# ---------------------------------------------------------------------------
# Witness flags and their frames


@dataclass(frozen=True)
class Flag:
    """What a clause's witness weight destabilizes: mu(g.f, w) depends on the
    frame g only through the flag that g sends to the standard one
    (Mumford-Fogarty-Kirwan, GIT, Prop. 2.7).

    `x` holds zero, one or two points of P^1 (the x-rows), `p` is a point of
    P^2 (the first y-row) and `line`, given when the weight needs it, a line
    through p (spanned by the first two y-rows)."""

    x: Tuple = ()
    p: Optional[Tuple] = None
    line: Optional[Tuple] = None


IDENTITY2 = ((1, 0), (0, 1))
IDENTITY3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _point_on_line(line, avoid=None):
    """A point of the projective line Z(line), not proportional to `avoid`."""
    for v in line_span(line):
        if avoid is None or any(not is_zero_scalar(c) for c in cross(v, avoid)):
            return v
    raise ValueError("no point on the line away from the excluded one")


def _complete_basis3(row0, row1):
    """row0, row1 and the unit vector e_i at the first nonzero entry of
    row0 x row1, which is det(row0, row1, e_i)."""
    normal = cross(row0, row1)
    for i in range(3):
        if not is_zero_scalar(normal[i]):
            return (tuple(row0), tuple(row1), IDENTITY3[i])
    raise ValueError("rows do not span a plane")


def normalize_frame(f: BiPoly, flag: Flag) -> FrameChange:
    """The frame sending `flag` to the standard flag.  The flag's coordinates
    are taken as given; a lone point is completed by coordinate vectors, and
    p with a line by a second point of the line.  An x-point together with p
    must be a point of the surface."""
    g2 = completed_rows(flag.x[0]) if len(flag.x) == 1 else flag.x or IDENTITY2
    if flag.p is None:
        g3 = IDENTITY3
    elif flag.line is None:
        g3 = completed_rows(flag.p)
    else:
        if not is_zero_scalar(dot(flag.line, flag.p)):
            raise ValueError("alignment line does not pass through the point")
        g3 = _complete_basis3(flag.p, _point_on_line(flag.line, avoid=flag.p))
    if flag.x and flag.p is not None and not is_zero_scalar(f.evaluate(flag.x[0], flag.p)):
        raise ValueError("the point does not lie on the surface")
    return FrameChange(g2, g3)


# ---------------------------------------------------------------------------
# Helpers shared by the condition checks


def _fmt_coords(p) -> str:
    return "[" + ",".join(format_scalar(c) for c in p) + "]"


def _fmt_point(P: Point) -> str:
    return f"{_fmt_coords(P[0])}x{_fmt_coords(P[1])}"


# ---------------------------------------------------------------------------
# Semi-stability (irreducible surfaces)


def check_semistability_conditions(checks: _Checks, locus: SingularLocus) -> None:
    """Per-singular-point report of the three semi-stability conditions plus
    the singular-contracted-section condition; each has a Positive witness."""
    pencil = locus.pencil
    # Condition (i): tangent cone pulled back from the plane, that is, free
    # of the transverse chart variable x1.
    for rec in locus.isolated_points:
        p1, p2 = rec.point
        checks.note(_fmt_point(rec.point), "ConePullback",
                    all(e[0] == 0 for e in rec.tangent_cone.terms), Flag((p1,), p2))
    # Condition (ii): non-reduced fibre inside the ramification locus.  A
    # ramified double-line fibre is singular along the whole line, and the
    # locus lists it as a fibre line exactly when f_x0 and f_x1 vanish on
    # it; an isolated point of a double line lies on an unramified one.
    for comp in locus.curve_components:
        if isinstance(comp, FibreLine):
            checks.note(
                f"fibre line over {_fmt_coords(comp.p1)}", "RamifiedDoubleFibre", True,
                Flag((comp.p1,), _point_on_line(comp.line), comp.line))
    for rec in locus.isolated_points:
        p1, p2 = rec.point
        if rec.fibre_line is not None:
            checks.note(_fmt_point(rec.point), "RamifiedDoubleFibre", False,
                        Flag((p1,), p2, rec.fibre_line))
    # Condition (iii): a reduced reducible fibre with a ramified component
    # whose image line is the constant value of the tangent map along a
    # contracted section through the point.
    for rec in locus.isolated_points:
        p1, p2 = rec.point
        if rec.fibre_line is not None or not on_contracted_section(pencil, p2):
            continue
        ps = phi_sigma_constant(pencil, p2)
        if ps.kind is not PhiSigmaKind.CONSTANT:
            continue
        # The only candidate component is the constant tangent line itself
        # (it passes through p2 by construction), so instead of splitting the
        # fibre conic we test whether that line divides it.
        if not line_divides_conic(ps.line, pencil.evaluate(p1)):
            continue
        checks.note(_fmt_point(rec.point), "RamifiedComponentWithContractedSection",
                    ramified_along(pencil, p1, ps.line), Flag((p1,), p2, ps.line))
    # Singular contracted section (undefined tangent map).
    for comp in locus.curve_components:
        if isinstance(comp, HorizontalSection):
            checks.note(
                f"section through {_fmt_coords(comp.p2)}", "SingularSection", True,
                Flag(p=normalize_projective(comp.p2)))


# ---------------------------------------------------------------------------
# Stability (irreducible semi-stable surfaces)


def _non_a1_section_line(pencil, P: Point):
    """The line a non-A1 singular point P on a contracted section is aligned
    to: the polar line at p2 of f_t(p1, .), for the x-variable x_t that the
    frame completes p1 with.

    Moved to the base point, f_t(p1, .) is the x0x1-conic, and the vanishing
    Hessian forces the line annihilating its linear part b01*y1 + b02*y2 to be
    a component of the fibre conic; aligning it to Z(y2) clears both
    obstructing coefficients at once.  That linear part is nonzero: the
    tangent cone's x1-terms are exactly x1*(b01*y1 + b02*y2), so
    b01 = b02 = 0 would violate ConePullback at P, and the stability checks
    run only when no semi-stability clause is violated.  The other x-variable
    gives the same line or none, by Euler's relation
    p1 . grad_x f(p1, .) = 2 f(p1, .), which is singular at p2.
    """
    p1, p2 = P
    return polar(pencil.x_partials(p1)[0 if is_zero_scalar(p1[0]) else 1], p2)


def check_stability_conditions(checks: _Checks, locus: SingularLocus) -> None:
    """Stability test for an irreducible semi-stable f; each clause has a
    Zero witness (the limit along the weight exists and is nonzero)."""
    pencil = locus.pencil
    # Constant tangent map along a section with at most A1 points on it.
    for p2 in locus.section_points:
        p2n = normalize_projective(p2)
        ps = phi_sigma_constant(pencil, p2)
        if ps.kind is PhiSigmaKind.UNDEFINED:
            raise ValueError("singular contracted section: input is unstable")
        # the locus keeps one point of each Galois orbit, over the field of
        # its own coordinates, so a point and p2 may be written over two fields
        violated = ps.kind is PhiSigmaKind.CONSTANT and all(
            rec.is_a1 for rec in locus.isolated_points if conjugate(rec.point[1], p2n))
        checks.note(f"section through {_fmt_coords(p2n)}", "ConstantTangentMap",
                    violated, Flag(p=p2n, line=ps.line))
    # A non-A1 singular point on a contracted section.
    for rec in locus.isolated_points:
        p1, p2 = rec.point
        if not rec.is_a1 and on_contracted_section(pencil, p2):
            checks.note(_fmt_point(rec.point), "NonA1OnContractedSection", True,
                        Flag((p1,), p2, _non_a1_section_line(pencil, rec.point)))
    # A non-A1 singular point with a non-reduced (double-line) fibre.
    for rec in locus.isolated_points:
        p1, p2 = rec.point
        if not rec.is_a1 and rec.fibre_line is not None:
            checks.note(_fmt_point(rec.point), "NonA1NonReducedFibre", True,
                        Flag((p1,), p2, rec.fibre_line))


# ---------------------------------------------------------------------------
# Reducible surfaces


def _tangent_flag(x, conic) -> Flag:
    """x, a point p of the smooth conic on Z(y2) (over at most a quadratic
    extension) and the conic's tangent line at p."""
    g = conic_gram(conic)
    q = restricted_to_line(g, (1, 0, 0), (0, 1, 0))
    if q.is_zero():
        raise ValueError("conic is singular along Z(y2)")
    r = q.roots()[0][0]
    p = (r[0], r[1], 0)
    return Flag(x, p, polar(g, p))


def classify_reducible(f: BiPoly, factors: List[Factor]) -> Verdict:
    """The case split over the bidegree multiset of the geometric factors;
    each case is one violated clause."""
    if len(factors) < 2:
        raise ValueError("classify_reducible requires at least two factors")
    subject, clause, flag = _reducible_case(f, factors)
    checks = _Checks(f)
    checks.note(subject, clause, True, flag)
    return checks.verdict()


def _reducible_case(f: BiPoly, factors: List[Factor]) -> Tuple[str, str, Flag]:
    """The subject and the violated clause of a reducible f, and its flag."""
    bidegrees = sorted(bd for bd, _fac in factors)

    # A plane-line factor (0,1): always unstable.
    plane_lines = [fac for bd, fac in factors if bd == (0, 1)]
    if plane_lines:
        ell = coefficient_matrix(plane_lines[0])[0]
        v0, v1 = line_span(ell)
        e = _complete_basis3(v0, v1)[2]
        # the y0*y2 coefficients of f, with y0 at v0 and y2 at e
        q0 = BinForm(2, [bilinear(conic_gram(q), v0, e) for q in conic_coefficients(f)])
        x = () if q0.is_zero() else (q0.roots()[0][0],)
        return "plane-line factor", "PlaneFactor", Flag(x, v0, ell)

    # (1,0) x (1,2): semi-stable iff the intersection conic is smooth.
    quadric = [fac for bd, fac in factors if bd == (1, 2)]
    if quadric:
        x = (x_linear_root(next(fac for bd, fac in factors if bd == (1, 0))),)
        g0 = restrict_x(quadric[0], x[0])
        subject = "plane-fibre intersection conic"
        if matrix_rank(conic_gram(g0)) == 3:
            return subject, "SmoothIntersectionConic", _tangent_flag(x, g0)
        lines = split_conic(g0)
        if lines is None:
            raise RuntimeError("singular conic failed to split")
        return (subject, "SingularIntersectionConic",
                Flag(x, line_span(lines[0])[0], lines[0]))

    # (1,1) x (1,1): unstable iff the two ruled pieces share a fibre.
    bilinears = [fac for bd, fac in factors if bd == (1, 1)]
    if len(bilinears) == 2:
        # the x0- and x1-coefficient plane lines of each (1,1) factor
        (a, b), (c, d) = (coefficient_matrix(fac) for fac in bilinears)
        w0, w1, w2 = cross(a, c), \
            tuple(x + y for x, y in zip(cross(a, d), cross(b, c))), cross(b, d)
        forms = [BinForm(2, [w0[i], w1[i], w2[i]]) for i in range(3)]
        g = forms[0]
        for h in forms[1:]:
            g = binform_gcd(g, h)
        if g.is_zero() or g.d >= 1:
            # a common fibre line exists
            ustar = (1, 0) if g.is_zero() else g.roots()[0][0]
            ell = tuple(ustar[0] * a[i] + ustar[1] * b[i] for i in range(3))
            if all(is_zero_scalar(x) for x in ell):
                ell = tuple(ustar[0] * c[i] + ustar[1] * d[i] for i in range(3))
            return ("two ruled pieces", "CommonFibre",
                    Flag((ustar,), line_span(ell)[0], ell))
        p1pt = cross(a, b)
        if all(is_zero_scalar(x) for x in p1pt):
            raise RuntimeError("degenerate (1,1) factor")
        cp, dp = dot(c, p1pt), dot(d, p1pt)
        if is_zero_scalar(cp) and is_zero_scalar(dp):
            raise RuntimeError(
                "shared contracted point without a shared fibre")
        ustar = (dp, -cp)
        la = tuple(ustar[0] * a[i] + ustar[1] * b[i] for i in range(3))
        return "two ruled pieces", "DistinctFibres", Flag((ustar,), p1pt, la)

    # Two fibre planes and an irreducible conic cylinder.
    if bidegrees == [(0, 2), (1, 0), (1, 0)]:
        r1, r2 = [x_linear_root(fac) for bd, fac in factors if bd == (1, 0)]
        if is_zero_scalar(det2((r1, r2))):
            return "repeated fibre plane", "NonReducedVerticalPart", Flag((r1,))
        conic = conic_coefficients(next(fac for bd, fac in factors if bd == (0, 2)))[0]
        return ("fibre planes and conic cylinder", "IrreducibleConicCylinder",
                _tangent_flag((r2, r1), conic))

    raise RuntimeError(f"unhandled factor bidegrees: {bidegrees}")


# ---------------------------------------------------------------------------
# Top-level classification


def classify(f: BiPoly) -> Verdict:
    if f.is_zero():
        raise ValueError("cannot classify the zero polynomial")
    if f.bidegree != (2, 2):
        raise ValueError("classification is specific to bidegree (2, 2)")
    factors = bihomogeneous_factor(f)
    if len(factors) >= 2:
        return classify_reducible(f, factors)
    locus = singular_locus(f, factors=factors)
    checks = _Checks(f)
    check_semistability_conditions(checks, locus)
    if checks.cert is None:
        check_stability_conditions(checks, locus)
    return checks.verdict()


# ---------------------------------------------------------------------------
# Randomized falsification oracle


def _random_rows(rng: random.Random, n: int):
    while True:
        rows = tuple(
            tuple(rng.randint(-3, 3) for _ in range(n))
            for _ in range(n)
        )
        d = det2(rows) if n == 2 else det3(rows)
        if d:
            return rows


def random_destabilize_search(
    f: BiPoly, trials: int, seed: int
) -> Optional[Certificate]:
    """Sample random frames and look up the transformed support in the
    maximal M+ and M⊕ sets; returns the first verifying certificate (Positive
    preferred over Zero per frame) or None.  Deterministic given the seed.
    The frames are integer, so each trial moves the integer multiple of the
    rational f in machine integers; mu reads only the support, which f shares
    with that multiple, so a weight found is verified exactly on the same
    move.  A weak match is tried only for a support in no M+ set, so its
    weight is zero somewhere on the support: its sign is Zero."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    int_terms = dict(zip(f.terms, primitive_integers(f.terms.values())))
    rng = random.Random(seed)
    for trial in range(trials):
        if trial == 0:
            g2, g3 = IDENTITY2, IDENTITY3
        else:
            g2, g3 = _random_rows(rng, 2), _random_rows(rng, 3)
        moved = moved_terms(g2, g3, int_terms)
        support = frozenset(moved)
        for strict in (True, False):
            w = find_destabilizing_weight(support, strict)
            if w is None:
                continue
            sign = MuSign.POSITIVE if strict else MuSign.ZERO
            cert = Certificate(FrameChange(g2, g3), w, sign)
            if cert.holds(BiPoly(f.bidegree, moved)):
                return cert
    return None
