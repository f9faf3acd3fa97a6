"""The weight cone LP that ``biquadric.weightlp``'s table of maximal sets
replaced, kept as the reference that the table is compared against.

The normalized weights form a polyhedral cone in the three free coordinates
(r0, s0, s1), with r1 = -r0 and s2 = -s0 - s1.  A monomial support adds one
half-space per monomial.  The cone is pointed (the normalization inequalities
alone force v = -v = 0), so it is the conic hull of its extreme rays, and in
three dimensions every extreme ray arises as the cross product of the normals
of two active constraints.  Enumerating those cross products gives a complete,
exact feasibility test: a nonzero ray exists iff the weak problem is feasible,
and the sum of all extreme rays lies in the relative interior, so it satisfies
strictly every inequality that is not identically zero on the cone — which
decides the strict problem.
"""

from math import gcd
from typing import Dict, List, Optional, Set, Tuple

from biquadric.bipoly import cross, dot
from biquadric.oneps import Weight, monomial_weight

# Normalization half-spaces in (r0, s0, s1): r0 <= 0, s0 <= s1, s1 <= s2.
NORMALIZATION_NORMALS: Tuple[Tuple[int, int, int], ...] = (
    (-1, 0, 0),
    (0, -1, 1),
    (0, -1, -2),
)


def support_normal(m) -> Tuple[int, int, int]:
    """Normal of the half-space {weight(m) >= 0} in (r0, s0, s1) coordinates."""
    return (m[0] - m[1], m[2] - m[4], m[3] - m[4])


def primitive(v) -> Optional[Tuple[int, int, int]]:
    g = gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    if g == 0:
        return None
    return (v[0] // g, v[1] // g, v[2] // g)


def extreme_rays(normals: List[Tuple[int, int, int]]) -> List[Tuple[int, int, int]]:
    rays: Set[Tuple[int, int, int]] = set()
    n = len(normals)
    for i in range(n):
        for j in range(i + 1, n):
            c = primitive(cross(normals[i], normals[j]))
            if c is None:
                continue
            for v in (c, (-c[0], -c[1], -c[2])):
                if all(dot(a, v) >= 0 for a in normals):
                    rays.add(v)
    return sorted(rays)


def to_weight(v: Tuple[int, int, int]) -> Weight:
    r0, s0, s1 = v
    return Weight((r0, -r0), (s0, s1, -s0 - s1))


def destabilizing_weights(support) -> Dict[bool, Optional[Weight]]:
    """The LP's witness for each mode, keyed by strictness: the
    lexicographically least primitive candidate among the extreme rays and
    their relative-interior sum, or None.  Both modes share one ray
    enumeration."""
    support = frozenset(support)
    if not support:
        raise ValueError("empty support")
    support_normals = sorted({support_normal(m) for m in support})
    rays = extreme_rays(list(NORMALIZATION_NORMALS) + support_normals)
    if not rays:
        return {True: None, False: None}
    relint = primitive(tuple(sum(r[k] for r in rays) for k in range(3)))
    candidates = list(rays)
    if relint is not None and relint not in candidates:
        candidates.append(relint)
    out = {}
    for strict in (True, False):
        kept = sorted(
            v for v in candidates
            if not strict or all(dot(a, v) > 0 for a in support_normals)
        )
        if not kept:
            out[strict] = None
            continue
        w = to_weight(kept[0])
        # Soundness re-check through the public weight arithmetic.
        w.require_normalized_nontrivial()
        for m in support:
            value = monomial_weight(m, w)
            assert value > 0 if strict else value >= 0
        out[strict] = w
    return out


def destabilizing_weight(support, strict: bool) -> Optional[Weight]:
    """The LP's witness in one mode."""
    return destabilizing_weights(support)[strict]
