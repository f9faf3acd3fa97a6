import random
from fractions import Fraction

import pytest

from biquadric.bipoly import all_monomials, parse
from biquadric.oneps import (
    LimitKind,
    Weight,
    limit,
    m_oplus,
    m_plus,
    monomial_weight,
    mu,
)
from conftest import random_poly

W = Weight.parse

# The four strict-positivity witness weights and the four zero-sign ones.
STRICT_WEIGHTS = ["-3,3;-2,-2,4", "-4,4;-10,5,5", "-1,1;-3,-1,4", "-2,2;-5,-1,6"]
ZERO_WEIGHTS = ["0,0;-1,0,1", "-1,1;-2,0,2", "-1,1;-1,0,1", "-2,2;-1,0,1"]


class TestWeight:
    def test_parse_and_str(self):
        w = W("-1,1;-4,2,2")
        assert (w.r, w.s) == ((-1, 1), (-4, 2, 2))
        assert str(w) == "-1,1;-4,2,2"

    def test_zero_sum_enforced(self):
        with pytest.raises(ValueError):
            Weight((1, 1), (0, 0, 0))

    def test_normalized_flag(self):
        assert W("-1,1;-1,0,1").is_normalized
        assert not Weight((1, -1), (0, 0, 0)).is_normalized

    def test_normalized_nontrivial_has_negative_corner(self):
        for text in STRICT_WEIGHTS + ZERO_WEIGHTS:
            w = W(text)
            assert w.r[0] + w.s[0] < 0


class TestMonomialWeight:
    def test_example(self):
        assert monomial_weight((0, 2, 0, 0, 2), W("-1,1;-1,0,1")) == 4

    def test_corner_always_negative(self):
        m = (2, 0, 2, 0, 0)
        for text in STRICT_WEIGHTS + ZERO_WEIGHTS:
            assert monomial_weight(m, W(text)) < 0

    def test_full_table(self):
        w = W("-3,3;-2,-2,4")
        for m in all_monomials():
            expected = (-3 * m[0] + 3 * m[1]
                        - 2 * m[2] - 2 * m[3] + 4 * m[4])
            assert monomial_weight(m, w) == expected


class TestMu:
    def test_single_term(self):
        assert mu(parse("x1^2*y2^2"), W("-1,1;-1,0,1")) == 4

    def test_zero_rejected(self):
        from biquadric.bipoly import BiPoly
        with pytest.raises(ValueError):
            mu(BiPoly((2, 2), {}), W("-1,1;-1,0,1"))

    def test_scalar_invariance(self):
        rng = random.Random(4)
        for _ in range(20):
            f = random_poly(rng, keep=0.5)
            w = W(rng.choice(STRICT_WEIGHTS + ZERO_WEIGHTS))
            assert mu(f * Fraction(7, 3), w) == mu(f, w)

    def test_cone_family_value(self):
        f = parse(
            "x0^2*(y1^2+y2^2+y1*y2) + x0*x1*(y1^2+y2^2+y1*y2)"
            " + x1^2*(y0*y1+y0*y2+y1^2+y2^2+y1*y2)"
        )
        assert mu(f, W("-4,4;-10,5,5")) == 2


class TestLimit:
    def test_all_fibres_singular_family_goes_to_zero(self):
        f = parse(
            "x0^2*(y1^2+y2^2+y1*y2) + x0*x1*(y1^2+y2^2+y1*y2)"
            " + x1^2*(y1^2+y2^2+y1*y2)"
        )
        assert limit(f, W("-1,1;-4,2,2")).kind is LimitKind.ZERO

    def test_weight_zero_part(self):
        f = parse(
            "x0^2*(y1^2+y0*y2+y2^2+y1*y2) + x0*x1*(y1^2+y0*y2)"
            " + x1^2*(y1^2+y0*y2+y1*y2)"
        )
        lim = limit(f, W("0,0;-1,0,1"))
        assert lim.kind is LimitKind.POLY
        assert lim.value == parse(
            "x0^2*(y1^2+y0*y2) + x0*x1*(y1^2+y0*y2) + x1^2*(y1^2+y0*y2)"
        )

    def test_negative_weight_term(self):
        assert limit(parse("x0^2*y0^2"), W("-1,1;-1,0,1")).kind is LimitKind.DOES_NOT_EXIST

    def test_three_way_correspondence(self):
        rng = random.Random(6)
        for _ in range(60):
            f = random_poly(rng, keep=0.4)
            w = W(rng.choice(STRICT_WEIGHTS + ZERO_WEIGHTS))
            value = mu(f, w)
            kind = limit(f, w).kind
            if value < 0:
                assert kind is LimitKind.DOES_NOT_EXIST
            elif value > 0:
                assert kind is LimitKind.ZERO
            else:
                assert kind is LimitKind.POLY

    def test_limit_support_in_m_oplus(self):
        rng = random.Random(8)
        for _ in range(40):
            f = random_poly(rng, keep=0.4)
            w = W(rng.choice(ZERO_WEIGHTS))
            lim = limit(f, w)
            if lim.kind is LimitKind.POLY:
                assert set(lim.value.terms) <= m_oplus(w)

    def test_support_in_m_plus_forces_zero(self):
        w = W("-3,3;-2,-2,4")
        plus = sorted(m_plus(w))
        rng = random.Random(10)
        for _ in range(20):
            chosen = rng.sample(plus, 5)
            from biquadric.bipoly import BiPoly
            f = BiPoly((2, 2), {m: Fraction(rng.randint(1, 3)) for m in chosen})
            assert limit(f, w).kind is LimitKind.ZERO


class TestMonomialSets:
    def test_m_oplus_size(self):
        assert len(m_oplus(W("0,0;-1,0,1"))) == 12

    def test_m_oplus_content(self):
        got = m_oplus(W("0,0;-1,0,1"))
        ys = {(0, 2, 0), (1, 0, 1), (0, 0, 2), (0, 1, 1)}
        expected = {(a, 2 - a) + b for a in range(3) for b in ys}
        assert got == expected

    def test_strict_sets_pairwise_distinct(self):
        sets = [frozenset(m_plus(W(t))) for t in STRICT_WEIGHTS]
        assert len(set(sets)) == 4

    def test_weak_sets_pairwise_distinct(self):
        sets = [frozenset(m_oplus(W(t))) for t in ZERO_WEIGHTS]
        assert len(set(sets)) == 4

    def test_plus_subset_of_oplus(self):
        for text in STRICT_WEIGHTS + ZERO_WEIGHTS:
            w = W(text)
            assert m_plus(w) <= m_oplus(w)
