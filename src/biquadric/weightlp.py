"""The paper's finite list of destabilizing weights, as a subset test.

A normalized weight w destabilizes a monomial support strictly when the
support lies in M+(w) (every monomial of positive weight) and weakly when it
lies in M⊕(w) (nonnegative weight).  These sets are constant on the cells
that the 18 monomial planes cut out of the normalized cone, so there are
finitely many, and up to inclusion there are five maximal M+ sets and five
maximal M⊕ sets.  A support is destabilized iff it lies in one of them.
``tests/test_weightlp.py`` derives the list from the rays of that
arrangement.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .bipoly import BiMonomial
from .oneps import Weight, m_oplus, m_plus

# One weight per maximal set: a CLAUSES weight wherever one generates it.
_STRICT = ("-2,2;-5,-1,6", "-3,3;-2,-2,4", "-4,4;-10,5,5",
           "-1,1;-3,-3,6", "-3,3;-2,1,1")
_WEAK = ("0,0;-1,0,1", "-1,1;-1,0,1", "-1,1;-2,0,2",
         "-1,1;-4,2,2", "-1,1;0,0,0")

MAXIMAL_SETS = {
    True: [(w, frozenset(m_plus(w))) for w in map(Weight.parse, _STRICT)],
    False: [(w, frozenset(m_oplus(w))) for w in map(Weight.parse, _WEAK)],
}


def find_destabilizing_weight(support: Iterable[BiMonomial], strict: bool) -> Optional[Weight]:
    """A normalized nontrivial weight positive (strict) or nonnegative (weak)
    on every monomial of the support, or None if none exists: the first
    weight of the list whose maximal set contains the support."""
    support = frozenset(support)
    if not support:
        raise ValueError("empty support")
    for w, monomials in MAXIMAL_SETS[strict]:
        if support <= monomials:
            return w
    return None
