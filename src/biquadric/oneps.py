"""One-parameter diagonal weights, the numerical function mu, and limits.

A weight is a pair of integer tuples (r0, r1) and (s0, s1, s2) with zero sum,
acting on a monomial x^alpha y^beta with weight r.alpha + s.beta.  The sign of
mu (the minimum weight over the support of f) governs whether the limit of the
weighted family at t -> 0 fails to exist, is zero, or is a polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Set, Tuple

from .bipoly import BiMonomial, BiPoly, all_monomials


@dataclass(frozen=True)
class Weight:
    """An integer weight vector for the diagonal torus of SL(2) x SL(3)."""

    r: Tuple[int, int]
    s: Tuple[int, int, int]

    def __post_init__(self):
        r, s = tuple(self.r), tuple(self.s)
        object.__setattr__(self, "r", (int(r[0]), int(r[1])))
        object.__setattr__(self, "s", (int(s[0]), int(s[1]), int(s[2])))
        if sum(self.r) != 0:
            raise ValueError(f"r = {self.r} does not sum to zero")
        if sum(self.s) != 0:
            raise ValueError(f"s = {self.s} does not sum to zero")

    @property
    def is_trivial(self) -> bool:
        return self.r == (0, 0) and self.s == (0, 0, 0)

    @property
    def is_normalized(self) -> bool:
        return self.r[0] <= self.r[1] and self.s[0] <= self.s[1] <= self.s[2]

    def require_normalized_nontrivial(self):
        if self.is_trivial:
            raise ValueError("weight is trivial")
        if not self.is_normalized:
            raise ValueError(f"weight {self} is not normalized")
        # Forced for every normalized nontrivial weight; guards conventions.
        assert self.r[0] + self.s[0] < 0

    def __str__(self):
        return f"{self.r[0]},{self.r[1]};{self.s[0]},{self.s[1]},{self.s[2]}"

    @classmethod
    def parse(cls, text: str) -> "Weight":
        """Parse the "r0,r1;s0,s1,s2" text form."""
        try:
            r_text, s_text = text.split(";")
            r = tuple(int(v) for v in r_text.split(","))
            s = tuple(int(v) for v in s_text.split(","))
        except ValueError as exc:
            raise ValueError(f"malformed weight {text!r}") from exc
        if len(r) != 2 or len(s) != 3:
            raise ValueError(f"malformed weight {text!r}")
        return cls(r, s)


def monomial_weight(m: BiMonomial, w: Weight) -> int:
    return (
        w.r[0] * m[0]
        + w.r[1] * m[1]
        + w.s[0] * m[2]
        + w.s[1] * m[3]
        + w.s[2] * m[4]
    )


def mu(f: BiPoly, w: Weight) -> int:
    """min of the monomial weights over the support of f."""
    if f.is_zero():
        raise ValueError("mu is undefined for the zero polynomial")
    return min(monomial_weight(m, w) for m in f.terms)


class LimitKind(Enum):
    DOES_NOT_EXIST = "DoesNotExist"
    ZERO = "Zero"
    POLY = "BiPoly"


@dataclass(frozen=True)
class Limit:
    kind: LimitKind
    value: Optional[BiPoly] = None


def limit(f: BiPoly, w: Weight) -> Limit:
    """Classify lim_{t->0} of the weighted family; the polynomial case keeps
    exactly the weight-zero terms."""
    if f.is_zero():
        raise ValueError("limit is undefined for the zero polynomial")
    m = mu(f, w)
    if m < 0:
        return Limit(LimitKind.DOES_NOT_EXIST)
    if m > 0:
        return Limit(LimitKind.ZERO)
    out = BiPoly(f.bidegree, {
        mono: c for mono, c in f.terms.items() if monomial_weight(mono, w) == 0
    })
    return Limit(LimitKind.POLY, out)


def m_plus(w: Weight) -> Set[BiMonomial]:
    """Monomials of the (2,2) basis with strictly positive weight."""
    w.require_normalized_nontrivial()
    return {m for m in all_monomials((2, 2)) if monomial_weight(m, w) > 0}


def m_oplus(w: Weight) -> Set[BiMonomial]:
    """Monomials of the (2,2) basis with nonnegative weight."""
    w.require_normalized_nontrivial()
    return {m for m in all_monomials((2, 2)) if monomial_weight(m, w) >= 0}
