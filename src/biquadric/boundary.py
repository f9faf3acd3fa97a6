"""Boundary geometry of the compactified moduli space.

The strictly semistable locus maps onto one point and three rational curves
meeting at it.  Minimal-orbit limits are computed from Zero-sign certificates,
recognized by their monomial support, and located on their curve by an exact
projective coordinate invariant under the stabilizing torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple

from .bipoly import BiPoly, FrameChange, act, is_scalar_multiple
from .classifier import Certificate, MuSign
from .fibration import normalize_projective
from .oneps import LimitKind, limit
from .scalars import is_zero_scalar


def moduli_dimension() -> int:
    """Dimension of the moduli of (2,2)-surfaces: the 18 monomials span a
    projective space of dimension 17, and the acting group SL(2) x SL(3) has
    dimension 3 + 8 = 11, so the quotient has dimension 17 - 11 = 6."""
    return 6


class Stratum(Enum):
    GAMMA1 = "Gamma1"
    GAMMA2 = "Gamma2"
    GAMMA3 = "Gamma3"
    GAMMA4 = "Gamma4"


@dataclass(frozen=True)
class BoundaryPoint:
    stratum: Stratum
    coordinate: Optional[Tuple[object, object]] = None
    closes_to_gamma1: bool = False


def minimal_orbit_limit(f: BiPoly, cert: Certificate) -> BiPoly:
    """The weight-zero part of f in the certificate's frame: the closed-orbit
    representative inside the orbit closure."""
    moved = act(cert.frame, f)
    if cert.claimed_mu_sign is not MuSign.ZERO or not cert.holds(moved):
        raise ValueError("certificate does not verify with Zero sign")
    lim = limit(moved, cert.weight)
    if lim.kind is not LimitKind.POLY or lim.value is None or lim.value.is_zero():
        raise ValueError("limit is not a nonzero polynomial")
    return lim.value


# Monomial supports of the four boundary families.
_G1_SUPPORT = frozenset({(1, 1, 1, 0, 1), (1, 1, 0, 2, 0)})
_G2_SUPPORT = _G1_SUPPORT | {(2, 0, 0, 1, 1), (0, 2, 1, 1, 0)}
_G3_SUPPORT = _G1_SUPPORT | {(2, 0, 0, 0, 2), (0, 2, 2, 0, 0)}
_G4_SUPPORT = frozenset(
    a + b
    for a in ((2, 0), (1, 1), (0, 2))
    for b in ((0, 2, 0), (1, 0, 1))
)


def stratum_of(limit_poly: BiPoly) -> BoundaryPoint:
    """Locate a minimal-orbit limit on the boundary.

    Matching is by monomial support first; curve coordinates are exact
    invariants of the residual torus action, normalized so that [1:0] is the
    common point where the three curves meet."""
    support = set(limit_poly.terms)
    if not support:
        raise ValueError("zero polynomial is not a boundary point")
    if support <= _G1_SUPPORT:
        if support != _G1_SUPPORT:
            raise ValueError("degenerate support: not a semistable limit")
        return BoundaryPoint(Stratum.GAMMA1)
    if support <= _G2_SUPPORT:
        a12 = limit_poly.coefficient((2, 0, 0, 1, 1))
        b11 = limit_poly.coefficient((1, 1, 0, 2, 0))
        b02 = limit_poly.coefficient((1, 1, 1, 0, 1))
        c01 = limit_poly.coefficient((0, 2, 1, 1, 0))
        if is_zero_scalar(b02):
            raise ValueError("not reducible to any stratum")
        coord = normalize_projective((b11 * b02, c01 * a12))
        return BoundaryPoint(Stratum.GAMMA2, coord, is_zero_scalar(coord[1]))
    if support <= _G3_SUPPORT:
        a22 = limit_poly.coefficient((2, 0, 0, 0, 2))
        b11 = limit_poly.coefficient((1, 1, 0, 2, 0))
        b02 = limit_poly.coefficient((1, 1, 1, 0, 1))
        c00 = limit_poly.coefficient((0, 2, 2, 0, 0))
        if is_zero_scalar(b11):
            raise ValueError("not reducible to any stratum")
        coord = normalize_projective((b02 * b02, a22 * c00))
        return BoundaryPoint(Stratum.GAMMA3, coord, is_zero_scalar(coord[1]))
    if support <= _G4_SUPPORT:
        q1 = [limit_poly.coefficient(a + (0, 2, 0)) for a in ((2, 0), (1, 1), (0, 2))]
        q2 = [limit_poly.coefficient(a + (1, 0, 1)) for a in ((2, 0), (1, 1), (0, 2))]
        if all(is_zero_scalar(c) for c in q1) or all(is_zero_scalar(c) for c in q2):
            raise ValueError("not reducible to any stratum")
        # SL(2)-invariants of the binary-quadratic pair (q1, q2):
        # discriminants and the bilinear pairing; [1:0] is the common point.
        a, b, c = q1
        d, e, g = q2
        d1 = b * b - a * c * 4
        d2 = e * e - d * g * 4
        pairing = b * e - a * g * 2 - c * d * 2
        coord = normalize_projective((d1 * d2, pairing * pairing - d1 * d2))
        return BoundaryPoint(Stratum.GAMMA4, coord, is_zero_scalar(coord[1]))
    raise ValueError("not reducible to any stratum")


def _gamma2_representative(u, v) -> BiPoly:
    terms = {
        (2, 0, 0, 1, 1): Fraction(1),
        (1, 1, 1, 0, 1): Fraction(1),
    }
    if not is_zero_scalar(u):
        terms[(1, 1, 0, 2, 0)] = u
    if not is_zero_scalar(v):
        terms[(0, 2, 1, 1, 0)] = v
    return BiPoly((2, 2), terms)


def gamma2_scaling_equivalence(u, v, rho) -> bool:
    """Executable confirmation that (u, v) and (rho^12 u, rho^12 v) name the
    same boundary point: the diagonal frame with rational entries
    diag(rho^3, rho^-3) x diag(rho^2, rho^-4, rho^2) maps one representative
    to a scalar multiple of the other."""
    rho = Fraction(rho)
    if rho == 0:
        raise ValueError("rho must be nonzero")
    u, v = Fraction(u), Fraction(v)
    r = rho ** 12
    frame = FrameChange(
        ((rho ** 3, 0), (0, rho ** -3)),
        ((rho ** 2, 0, 0), (0, rho ** -4, 0), (0, 0, rho ** 2)),
    )
    moved = act(frame, _gamma2_representative(r * u, r * v))
    return is_scalar_multiple(moved, _gamma2_representative(u, v))
