import itertools
import random

import pytest

from biquadric.bipoly import all_monomials
from biquadric.oneps import Weight, m_plus, monomial_weight
from biquadric.weightlp import _destabilizing_weight, find_destabilizing_weight

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


class TestCache:
    def test_cached_answers_match_uncached(self):
        _destabilizing_weight.cache_clear()
        rng = random.Random(31)
        supports = [frozenset(rng.sample(MONOS, rng.randint(1, 18))) for _ in range(500)]
        uncached = {(s, strict): _destabilizing_weight.__wrapped__(s, strict)
                    for s in supports for strict in (True, False)}
        # once to fill the cache, once more to read it back
        for _ in range(2):
            for (support, strict), expected in uncached.items():
                assert find_destabilizing_weight(set(support), strict) == expected
        assert _destabilizing_weight.cache_info().hits >= len(uncached)
        answers = list(uncached.values())
        assert None in answers and any(w is not None for w in answers)
