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
from fractions import Fraction
from math import lcm
from typing import Callable, List, Optional, Tuple

from .bipoly import (
    BiPoly,
    FrameChange,
    act,
    cross,
    det2,
    det3,
    moved_terms,
)
from .factorizer import Factor, bihomogeneous_factor
from .fibration import (
    BinForm,
    PhiSigmaKind,
    binform_gcd,
    conic_coefficients,
    conic_gram,
    conic_of,
    conjugate,
    line_divides_conic,
    line_span,
    matrix_rank,
    normalize_projective,
    phi_sigma_constant,
    polar,
    proportional,
    ramified_along,
    restrict_x,
    split_conic,
)
from .oneps import Weight, monomial_weight, mu
from .scalars import format_scalar, is_zero_scalar
from .singularity import (
    FibreLine,
    HorizontalSection,
    Point,
    SingularLocus,
    point_frame,
    singular_locus,
    y_linear_coeffs,
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
        # mu is 0 for the trivial weight, so it would "verify" any Zero claim
        if self.weight.is_trivial or not self.weight.is_normalized:
            return False
        value = mu(act(self.frame, f), self.weight)
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

    def note(self, subject: str, clause: str, violated: bool,
             frame: Callable[[], FrameChange]) -> None:
        """Record one clause.  The first violated clause builds its frame and
        keeps the certificate of its witness, verified."""
        self.records.append(ConditionRecord(subject, clause, violated))
        if violated and self.cert is None:
            weight, sign = CLAUSES[clause]
            self.cert = Certificate(frame(), weight, sign)
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
# Frame construction


IDENTITY2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
IDENTITY3 = (
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1)),
)


def _line_value(line, p) -> object:
    return sum((line[i] * p[i] for i in range(1, len(p))), line[0] * p[0])


def _point_on_line(line, avoid=None):
    """A point of the projective line Z(line), not proportional to `avoid`."""
    for v in line_span(line):
        if avoid is None or not proportional(v, avoid):
            return v
    raise ValueError("no point on the line away from the excluded one")


def _complete_basis3(row0, row1):
    for e in IDENTITY3:
        if not is_zero_scalar(det3((row0, row1, e))):
            return (tuple(row0), tuple(row1), e)
    raise ValueError("rows do not span a plane")


def _complete_basis2(row0):
    row1 = (Fraction(0), Fraction(1)) if not is_zero_scalar(row0[0]) else (Fraction(1), Fraction(0))
    if is_zero_scalar(det2((tuple(row0), row1))):
        raise ValueError("zero row")
    return (tuple(row0), row1)


def normalize_frame(f: BiPoly, P: Point, line=None) -> FrameChange:
    """A frame moving P to [1,0] x [1,0,0] and, if given, the plane line
    through P's plane point to Z(y2)."""
    frame = point_frame(P)
    if line is not None:
        p2 = frame.g3[0]
        if not is_zero_scalar(_line_value(line, p2)):
            raise ValueError("alignment line does not pass through the point")
        frame = FrameChange(frame.g2, _complete_basis3(p2, _point_on_line(line, avoid=p2)))
    if not is_zero_scalar(f.evaluate(*P)):
        raise ValueError("the point does not lie on the surface")
    return frame


# ---------------------------------------------------------------------------
# Helpers shared by the condition checks


def _fmt_coords(p) -> str:
    return "[" + ",".join(format_scalar(c) for c in p) + "]"


def _fmt_point(P: Point) -> str:
    return f"{_fmt_coords(P[0])}x{_fmt_coords(P[1])}"


def _double_line_of(f: BiPoly, p1):
    """The support line of a rank-1 fibre conic over p1."""
    conic = restrict_x(f, p1)
    lines = split_conic(conic)
    if not lines:
        raise ValueError("fibre over p1 is not a singular conic")
    return lines[0]


def _on_some_section(p2, section_points) -> bool:
    """True iff p2 is a Galois conjugate of one of the section points.  The
    singular locus keeps one point of each Galois orbit, over the field of
    its own coordinates, so one point may be written over two fields."""
    return any(conjugate(p2, q) for q in section_points)


# ---------------------------------------------------------------------------
# Semi-stability (irreducible surfaces)


def check_semistability_conditions(checks: _Checks, locus: SingularLocus) -> None:
    """Per-singular-point report of the three semi-stability conditions plus
    the singular-contracted-section condition; each has a Positive witness."""
    f = checks.f
    # Condition (i): tangent cone pulled back from the plane, that is, free
    # of the transverse chart variable x1.
    for rec in locus.isolated_points:
        checks.note(_fmt_point(rec.point), "ConePullback",
                    all(e[0] == 0 for e in rec.tangent_cone.terms),
                    lambda: normalize_frame(f, rec.point))
    # Condition (ii): non-reduced fibre inside the ramification locus.  A
    # ramified double-line fibre is singular along the whole line, so the
    # witnesses are exactly the fibre-line components of the singular locus.
    for comp in locus.curve_components:
        if isinstance(comp, FibreLine):
            checks.note(
                f"fibre line over {_fmt_coords(comp.p1)}", "RamifiedDoubleFibre",
                ramified_along(f, comp.p1, comp.line),
                lambda: normalize_frame(
                    f, (comp.p1, _point_on_line(comp.line)), line=comp.line))
    for rec in locus.isolated_points:
        if rec.fibre_rank == 1:  # a double-line fibre
            line = _double_line_of(f, rec.point[0])
            checks.note(_fmt_point(rec.point), "RamifiedDoubleFibre",
                        ramified_along(f, rec.point[0], line),
                        lambda: normalize_frame(f, rec.point, line=line))
    # Condition (iii): a reduced reducible fibre with a ramified component
    # whose image line is the constant value of the tangent map along a
    # contracted section through the point.
    for rec in locus.isolated_points:
        p1, p2 = rec.point
        if rec.fibre_rank != 2:  # not a pair of distinct lines
            continue
        if not _on_some_section(p2, locus.section_points):
            continue
        ps = phi_sigma_constant(f, p2)
        if ps.kind is not PhiSigmaKind.CONSTANT:
            continue
        # The only candidate component is the constant tangent line itself
        # (it passes through p2 by construction), so instead of splitting the
        # fibre conic we test whether that line divides it.
        if not line_divides_conic(ps.line, restrict_x(f, p1)):
            continue
        checks.note(_fmt_point(rec.point), "RamifiedComponentWithContractedSection",
                    ramified_along(f, p1, ps.line),
                    lambda: normalize_frame(f, rec.point, line=ps.line))
    # Singular contracted section (undefined tangent map).
    for comp in locus.curve_components:
        if isinstance(comp, HorizontalSection):
            p2n = normalize_projective(comp.p2)
            # a nonzero point is proportional to at most one coordinate vector
            row1 = next(e for e in IDENTITY3 if not proportional(p2n, e))
            checks.note(
                f"section through {_fmt_coords(comp.p2)}", "SingularSection", True,
                lambda: FrameChange(IDENTITY2, _complete_basis3(p2n, row1)))


# ---------------------------------------------------------------------------
# Stability (irreducible semi-stable surfaces)


def _non_a1_section_frame(f: BiPoly, P: Point) -> FrameChange:
    """Frame for a non-A1 singular point lying on a contracted section.

    After moving P to the base point, the vanishing Hessian forces the line
    annihilating the x0x1-conic's linear part to be a component of the fibre
    conic; aligning it to Z(y2) clears both obstructing coefficients at once.
    That linear part b01*y1 + b02*y2 is nonzero: the tangent cone's x1-terms
    are exactly x1*(b01*y1 + b02*y2), so b01 = b02 = 0 would violate
    ConePullback at P, and the stability checks run only when no
    semi-stability clause is violated.
    """
    base = point_frame(P)
    _A, B, _C = conic_coefficients(act(base, f))
    row1 = (Fraction(0), B.coefficient((1, 0, 1)), -B.coefficient((1, 1, 0)))
    g3 = _complete_basis3((Fraction(1), Fraction(0), Fraction(0)), row1)
    return FrameChange(IDENTITY2, g3).compose(base)


def check_stability_conditions(checks: _Checks, locus: SingularLocus) -> None:
    """Stability test for an irreducible semi-stable f; each clause has a
    Zero witness (the limit along the weight exists and is nonzero)."""
    f = checks.f
    # Constant tangent map along a section with at most A1 points on it.
    for p2 in locus.section_points:
        p2n = normalize_projective(p2)
        ps = phi_sigma_constant(f, p2)
        if ps.kind is PhiSigmaKind.UNDEFINED:
            raise ValueError("singular contracted section: input is unstable")
        violated = ps.kind is PhiSigmaKind.CONSTANT and all(
            rec.local_type.is_a1 for rec in locus.isolated_points
            if _on_some_section(rec.point[1], (p2n,)))
        checks.note(
            f"section through {_fmt_coords(p2n)}", "ConstantTangentMap", violated,
            lambda: FrameChange(IDENTITY2, _complete_basis3(
                p2n, _point_on_line(ps.line, avoid=p2n))))
    # A non-A1 singular point on a contracted section.
    for rec in locus.isolated_points:
        if not rec.local_type.is_a1 and _on_some_section(
                rec.point[1], locus.section_points):
            checks.note(_fmt_point(rec.point), "NonA1OnContractedSection", True,
                        lambda: _non_a1_section_frame(f, rec.point))
    # A non-A1 singular point with a non-reduced (double-line) fibre.
    for rec in locus.isolated_points:
        if not rec.local_type.is_a1 and rec.fibre_rank == 1:
            checks.note(_fmt_point(rec.point), "NonA1NonReducedFibre", True,
                        lambda: normalize_frame(
                            f, rec.point, line=_double_line_of(f, rec.point[0])))


# ---------------------------------------------------------------------------
# Reducible surfaces


def _line_kernel_frame(ell) -> Tuple:
    """3x3 rows sending the plane line with coefficient vector ell to Z(y2)."""
    return _complete_basis3(*line_span(ell))


def _x_root_rows(line_pair):
    """2x2 rows whose first row is a root of the x-linear form (l0, l1)."""
    l0, l1 = line_pair
    return _complete_basis2((l1, -l0))


def _x_line_coeffs(factor: BiPoly):
    return (factor.coefficient((1, 0, 0, 0, 0)),
            factor.coefficient((0, 1, 0, 0, 0)))


def _bilinear_lines(factor: BiPoly):
    """The x0- and x1-coefficient plane lines of a (1,1) factor."""
    return tuple(
        tuple(factor.coefficient(x + tuple(int(i == j) for j in range(3)))
              for i in range(3))
        for x in ((1, 0), (0, 1)))


def _split_surface_frame(x_rows, conic) -> FrameChange:
    """x_rows, and plane rows that start with a point p of the smooth conic
    (over at most a quadratic extension) and a second point on its tangent
    line at p."""
    c00 = conic.coefficient((2, 0, 0))
    c01 = conic.coefficient((1, 1, 0))
    c11 = conic.coefficient((0, 2, 0))
    if all(is_zero_scalar(c) for c in (c00, c01, c11)):
        raise ValueError("conic is singular along Z(y2)")
    r = BinForm(2, (c00, c01, c11)).roots()[0][0]
    p = (r[0], r[1], Fraction(0))
    row1 = _point_on_line(polar(conic_gram(conic), p), avoid=p)
    return FrameChange(x_rows, _complete_basis3(p, row1))


def classify_reducible(f: BiPoly, factors: List[Factor]) -> Verdict:
    """The case split over the bidegree multiset of the geometric factors;
    each case is one violated clause."""
    if len(factors) < 2:
        raise ValueError("classify_reducible requires at least two factors")
    subject, clause, frame = _reducible_case(f, factors)
    checks = _Checks(f)
    checks.note(subject, clause, True, lambda: frame)
    return checks.verdict()


def _reducible_case(f: BiPoly, factors: List[Factor]) -> Tuple[str, str, FrameChange]:
    """The subject, the clause and the witness frame of a reducible f."""
    bidegrees = sorted(bd for bd, _fac in factors)

    # A plane-line factor (0,1): always unstable.
    plane_lines = [fac for bd, fac in factors if bd == (0, 1)]
    if plane_lines:
        ell = y_linear_coeffs(plane_lines[0])
        g3 = _line_kernel_frame(ell)
        moved = act(FrameChange(IDENTITY2, g3), f)
        q0 = BinForm(2, [
            moved.coefficient((2 - i, i, 1, 0, 1)) for i in range(3)
        ])
        g2 = IDENTITY2 if q0.is_zero() else _complete_basis2(q0.roots()[0][0])
        return "plane-line factor", "PlaneFactor", FrameChange(g2, g3)

    # (1,0) x (1,2): semi-stable iff the intersection conic is smooth.
    quadric = [fac for bd, fac in factors if bd == (1, 2)]
    if quadric:
        line = next(fac for bd, fac in factors if bd == (1, 0))
        lp = _x_line_coeffs(line)
        p1root = (lp[1], -lp[0])
        g0 = restrict_x(quadric[0], p1root)
        x_rows = _x_root_rows(lp)
        subject = "plane-fibre intersection conic"
        if matrix_rank(conic_gram(g0)) == 3:
            return (subject, "SmoothIntersectionConic",
                    _split_surface_frame(x_rows, g0))
        lines = split_conic(g0)
        if lines is None:
            raise RuntimeError("singular conic failed to split")
        return (subject, "SingularIntersectionConic",
                FrameChange(x_rows, _line_kernel_frame(lines[0])))

    # (1,1) x (1,1): unstable iff the two ruled pieces share a fibre.
    bilinears = [fac for bd, fac in factors if bd == (1, 1)]
    if len(bilinears) == 2:
        a, b = _bilinear_lines(bilinears[0])
        c, d = _bilinear_lines(bilinears[1])
        w0, w1, w2 = cross(a, c), \
            tuple(x + y for x, y in zip(cross(a, d), cross(b, c))), cross(b, d)
        forms = [BinForm(2, [w0[i], w1[i], w2[i]]) for i in range(3)]
        g = forms[0]
        for h in forms[1:]:
            g = binform_gcd(g, h)
        if g.is_zero() or g.d >= 1:
            # a common fibre line exists
            ustar = (Fraction(1), Fraction(0)) if g.is_zero() else g.roots()[0][0]
            ell = tuple(ustar[0] * a[i] + ustar[1] * b[i] for i in range(3))
            if all(is_zero_scalar(x) for x in ell):
                ell = tuple(ustar[0] * c[i] + ustar[1] * d[i] for i in range(3))
            return ("two ruled pieces", "CommonFibre",
                    FrameChange(_complete_basis2(ustar), _line_kernel_frame(ell)))
        p1pt = cross(a, b)
        if all(is_zero_scalar(x) for x in p1pt):
            raise RuntimeError("degenerate (1,1) factor")
        cp, dp = _line_value(c, p1pt), _line_value(d, p1pt)
        if is_zero_scalar(cp) and is_zero_scalar(dp):
            raise RuntimeError(
                "shared contracted point without a shared fibre")
        ustar = (dp, -cp)
        la = tuple(ustar[0] * a[i] + ustar[1] * b[i] for i in range(3))
        row1 = _point_on_line(la, avoid=p1pt)
        return ("two ruled pieces", "DistinctFibres", FrameChange(
            _complete_basis2(ustar), _complete_basis3(p1pt, row1)))

    # Two fibre planes and an irreducible conic cylinder.
    if bidegrees == [(0, 2), (1, 0), (1, 0)]:
        l1, l2 = [
            _x_line_coeffs(fac) for bd, fac in factors if bd == (1, 0)
        ]
        conic_factor = next(fac for bd, fac in factors if bd == (0, 2))
        conic = conic_of(conic_factor)
        if is_zero_scalar(l1[0] * l2[1] - l1[1] * l2[0]):
            return ("repeated fibre plane", "NonReducedVerticalPart",
                    FrameChange(_x_root_rows(l1), IDENTITY3))
        x_rows = (_x_root_rows(l2)[0], _x_root_rows(l1)[0])
        if is_zero_scalar(det2(x_rows)):
            raise RuntimeError("fibre-plane roots coincide unexpectedly")
        return ("fibre planes and conic cylinder", "IrreducibleConicCylinder",
                _split_surface_frame(x_rows, conic))

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
    """Sample random frames and solve the weight cone over the transformed
    support; returns the first verifying certificate (Positive preferred over
    Zero per frame) or None.  Deterministic given the seed.  The frames are
    integer, so each moved support is that of the moved integer multiple of
    the rational f; a weight found is verified exactly."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    scale = lcm(*(c.denominator for c in f.terms.values()))
    int_terms = {m: int(c * scale) for m, c in f.terms.items()}
    rng = random.Random(seed)
    for trial in range(trials):
        if trial == 0:
            g2, g3 = IDENTITY2, IDENTITY3
        else:
            g2, g3 = _random_rows(rng, 2), _random_rows(rng, 3)
        support = frozenset(moved_terms(g2, g3, int_terms))
        for strict in (True, False):
            w = find_destabilizing_weight(support, strict)
            if w is None:
                continue
            value = min(monomial_weight(m, w) for m in support)
            sign = MuSign.POSITIVE if value > 0 else MuSign.ZERO
            cert = Certificate(FrameChange(g2, g3), w, sign)
            if cert.verify(f):
                return cert
    return None
