import itertools
import random
from fractions import Fraction

import pytest

from biquadric.bipoly import BiPoly, all_monomials, cross, dot
from biquadric.classifier import StabilityClass, classify
from biquadric.oneps import Weight, m_oplus, m_plus, monomial_weight
from biquadric.weightlp import MAXIMAL_SETS, find_destabilizing_weight
from test_oneps import STRICT_WEIGHTS, ZERO_WEIGHTS
from weightlp_reference import (
    NORMALIZATION_NORMALS,
    destabilizing_weights,
    primitive,
    support_normal,
    to_weight,
)

MONOS = list(all_monomials())


def brute_force(support, strict, bound):
    """Independent oracle: enumerate every normalized integer weight with
    entries in [-bound, bound]."""
    for r0 in range(-bound, 1):
        r = (r0, -r0)
        for s0 in range(-bound, 1):
            for s1 in range(s0, bound + 1):
                s2 = -s0 - s1
                if not (s1 <= s2 <= bound):
                    continue
                if r0 == 0 and s0 == 0 and s1 == 0:
                    continue
                w = Weight(r, (s0, s1, s2))
                values = [monomial_weight(m, w) for m in support]
                if strict and all(v > 0 for v in values):
                    return w
                if not strict and all(v >= 0 for v in values):
                    return w
    return None


def check_witness(w, support, strict):
    assert w.is_normalized and not w.is_trivial
    for m in support:
        v = monomial_weight(m, w)
        assert v > 0 if strict else v >= 0


class TestExamples:
    def test_corner_monomial_infeasible(self):
        assert find_destabilizing_weight({(2, 0, 2, 0, 0)}, strict=True) is None
        assert find_destabilizing_weight({(2, 0, 2, 0, 0)}, strict=False) is None

    def test_opposite_corner_feasible(self):
        support = {(0, 2, 0, 0, 2)}
        w = find_destabilizing_weight(support, strict=True)
        assert w is not None
        check_witness(w, support, strict=True)

    def test_full_positive_set_feasible(self):
        support = m_plus(Weight((-3, 3), (-2, -2, 4)))
        w = find_destabilizing_weight(support, strict=True)
        assert w is not None
        check_witness(w, support, strict=True)
        # the generating weight itself is an accepted witness
        for m in support:
            assert monomial_weight(m, Weight((-3, 3), (-2, -2, 4))) > 0

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            find_destabilizing_weight(set(), strict=True)


class TestCompleteness:
    @pytest.mark.parametrize("strict", [True, False])
    def test_against_grid_oracle(self, strict):
        rng = random.Random(42 + strict)
        for _ in range(100):
            size = rng.randint(1, 18)
            support = set(rng.sample(MONOS, size))
            got = find_destabilizing_weight(support, strict=strict)
            oracle6 = brute_force(support, strict, 6)
            assert (got is None) == (oracle6 is None)
            if got is not None:
                check_witness(got, support, strict)

    def test_bound_12_revalidation(self):
        rng = random.Random(99)
        for _ in range(40):
            support = set(rng.sample(MONOS, rng.randint(1, 18)))
            for strict in (True, False):
                got = find_destabilizing_weight(support, strict=strict)
                oracle12 = brute_force(support, strict, 12)
                assert (got is None) == (oracle12 is None)


class TestMonotonicity:
    def test_enlarging_support_never_creates_witness(self):
        rng = random.Random(17)
        for _ in range(40):
            small = set(rng.sample(MONOS, rng.randint(1, 9)))
            extra = set(rng.sample(MONOS, rng.randint(1, 9)))
            large = small | extra
            for strict in (True, False):
                small_ans = find_destabilizing_weight(small, strict=strict)
                large_ans = find_destabilizing_weight(large, strict=strict)
                if small_ans is None:
                    assert large_ans is None


class TestDeterminism:
    def test_repeated_calls_identical(self):
        rng = random.Random(23)
        for _ in range(20):
            support = frozenset(rng.sample(MONOS, rng.randint(2, 12)))
            a = find_destabilizing_weight(support, strict=True)
            b = find_destabilizing_weight(set(sorted(support, reverse=True)), strict=True)
            assert a == b


class TestDerivation:
    """The maximal sets follow from the rays of the arrangement of the 18
    monomial planes and the 3 normalization planes.  M+ and M⊕ are constant on
    each face of the arrangement in the normalized cone, and a face of
    dimension d holds the sum of any d independent rays of it, so M+ and M⊕
    of the sums of one to three rays take every value that they take on a
    normalized weight."""

    @staticmethod
    def rays():
        normals = list(NORMALIZATION_NORMALS) + sorted({support_normal(m) for m in MONOS})
        rays = set()
        for a, b in itertools.combinations(normals, 2):
            c = primitive(cross(a, b))
            if c is None:
                continue
            for v in (c, tuple(-x for x in c)):
                if all(dot(n, v) >= 0 for n in NORMALIZATION_NORMALS):
                    rays.add(v)
        return sorted(rays)

    def test_fourteen_rays(self):
        assert len(self.rays()) == 14

    def test_maximal_sets(self):
        plus, oplus = set(), set()
        rays = self.rays()
        for k in (1, 2, 3):
            for combo in itertools.combinations(rays, k):
                w = to_weight(tuple(sum(v[i] for v in combo) for i in range(3)))
                plus.add(frozenset(m_plus(w)))
                oplus.add(frozenset(m_oplus(w)))
        for strict, sets in ((True, plus), (False, oplus)):
            maximal = {s for s in sets if not any(s < t for t in sets)}
            table = [monomials for _, monomials in MAXIMAL_SETS[strict]]
            assert len(table) == len(set(table)) == len(maximal) == 5
            assert set(table) == maximal

    def test_each_weight_generates_its_set(self):
        for strict, generated in ((True, m_plus), (False, m_oplus)):
            for w, monomials in MAXIMAL_SETS[strict]:
                assert frozenset(generated(w)) == monomials


class TestReference:
    """The table against the weight cone LP it replaced, on feasibility."""

    @staticmethod
    def agree(support):
        expected = destabilizing_weights(support)
        for strict in (True, False):
            got = find_destabilizing_weight(support, strict)
            assert (got is None) == (expected[strict] is None), (sorted(support), strict)
            if got is not None:
                check_witness(got, support, strict)

    def test_random_supports(self):
        # Both functions freeze their argument, so one check per distinct
        # support covers all 40,000 seeded draws.
        rng = random.Random(31)
        draws = dict.fromkeys(frozenset(rng.sample(MONOS, rng.randint(1, 18))) for _ in range(40000))
        assert len(draws) == 23806
        for support in draws:
            self.agree(support)

    def test_supports_around_the_maximal_sets(self):
        for sets in MAXIMAL_SETS.values():
            for _, monomials in sets:
                self.agree(monomials)
                for m in monomials:
                    self.agree(monomials - {m})
                for m in set(MONOS) - monomials:
                    self.agree(monomials | {m})


class TestPaperList:
    """Modulo the group, the ten sets are the paper's four strict and four
    zero weights: a generic member of an M+ set is Unstable, one of an M⊕ set
    is not Stable, and every certificate weight is on the paper's list."""

    def test_generic_members(self):
        paper = {Weight.parse(t) for t in STRICT_WEIGHTS + ZERO_WEIGHTS}
        rng = random.Random(37)
        for strict, sets in MAXIMAL_SETS.items():
            for _, monomials in sets:
                for _ in range(10):
                    f = BiPoly((2, 2), {
                        m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))
                        for m in sorted(monomials)
                    })
                    verdict = classify(f)
                    if strict:
                        assert verdict.stability is StabilityClass.UNSTABLE
                    else:
                        assert verdict.stability is not StabilityClass.STABLE
                    assert verdict.certificate.weight in paper
                    assert verdict.certificate.verify(f)
