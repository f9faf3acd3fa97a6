import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from biquadric.scalars import (
    NumberFieldElement,
    ParseError,
    UniPoly,
    _Field,
    format_scalar,
    parse_scalar,
    read_rational,
    scalar_inv,
    squarefree_part,
    uv_factorize,
    uv_gcd,
    uv_roots,
)


def P(*coeffs):
    return UniPoly([Fraction(c) for c in coeffs])


def generator(*modulus):
    """The class of t in Q[t]/(m) for a monic irreducible m."""
    return NumberFieldElement(P(*modulus), P(0, 1))


class TestUvGcd:
    def test_shared_root(self):
        assert uv_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_coprime(self):
        assert uv_gcd(P(1, 0, 1), P(2, 0, 1)) == P(1)

    def test_gcd_of_zeros(self):
        assert uv_gcd(P(), P()).is_zero()

    def test_divides_both(self):
        a = P(-1, 0, 1) * P(1, 1, 1)
        b = P(-1, 0, 1) * P(2, 1)
        g = uv_gcd(a, b)
        assert a.divmod(g)[1].is_zero() and b.divmod(g)[1].is_zero()
        assert g == P(-1, 0, 1)


class TestSquarefree:
    """The squarefree decomposition as the multiplicities of the
    factorization over Q, which root finding reports."""

    def test_double_root(self):
        p = P(-1, 1) * P(-1, 1) * P(2, 1)
        assert sorted(uv_roots(p)) == [(-2, 1), (1, 2)]

    def test_pure_power(self):
        assert uv_factorize(P(0, 0, 0, 0, 0, 0, 1)) == [(P(0, 1), 6)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            uv_factorize(P())

    def test_random_cubic_squared(self):
        cubic = P(2, -1, 3, 1)
        assert uv_factorize(cubic * cubic) == [(cubic.monic(), 2)]

    def test_parts_pairwise_coprime(self):
        p = P(-1, 1) * P(-1, 1) * P(1, 1) * P(1, 0, 1) * P(1, 0, 1) * P(1, 0, 1)
        parts = uv_factorize(p)
        assert sorted((f.degree, m) for f, m in parts) == [(1, 1), (1, 2), (2, 3)]
        for i, (a, _) in enumerate(parts):
            for b, _ in parts[i + 1:]:
                assert uv_gcd(a, b) == P(1)


class TestSquarefreePart:
    """An integer that names the field Q(sqrt(c)); nothing is factored."""

    def test_square_divided_out(self):
        assert squarefree_part(Fraction(8)) == 2

    def test_negative_fraction(self):
        # sqrt(-3/4) generates Q(sqrt(-3))
        assert squarefree_part(Fraction(-3, 4)) == -3

    def test_large_primes_kept(self):
        # factoring 9 p q takes seconds; dividing out small squares does not
        p, q = 100000000000000000039, 300000000000000000053
        assert squarefree_part(Fraction(9 * p * q)) == p * q


class TestFactorize:
    def test_irreducible_quadratic(self):
        assert uv_factorize(P(-2, 0, 1)) == [(P(-2, 0, 1), 1)]

    def test_quartic(self):
        facs = uv_factorize(P(-1, 0, 0, 0, 1))
        assert sorted(facs, key=lambda t: (t[0].degree, str(t[0].coeffs))) == sorted(
            [(P(-1, 1), 1), (P(1, 1), 1), (P(1, 0, 1), 1)],
            key=lambda t: (t[0].degree, str(t[0].coeffs)),
        )

    def test_two_cubics_recovered(self):
        a, b = P(1, 0, 1, 1), P(1, 1, 0, 1)
        facs = uv_factorize(a * b)
        assert sorted(f.coeffs for f, _ in facs) == sorted([a.coeffs, b.coeffs])

    def test_remultiplies(self):
        p = P(6, -5, -2, 1)
        acc = P(1)
        for fac, mult in uv_factorize(p):
            for _ in range(mult):
                acc = acc * fac
        assert acc == p.monic()

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            uv_factorize(P(*([1] + [0] * 12 + [1])))


class TestNumberField:
    def test_sqrt2_squares_to_two(self):
        t = generator(-2, 0, 1)
        assert (t * t).as_fraction() == 2

    def test_inverse_in_gaussian_field(self):
        t = generator(1, 0, 1)
        inv = scalar_inv(t + 1)
        # (1+i)^-1 = (1-i)/2
        expected = (NumberFieldElement(
            (Fraction(1), Fraction(0), Fraction(1)),
            [Fraction(1), Fraction(-1)],
        )) * Fraction(1, 2)
        assert inv == expected
        assert ((t + 1) * inv).as_fraction() == 1

    def test_modulus_mismatch(self):
        a = generator(-2, 0, 1)
        b = generator(-3, 0, 1)
        with pytest.raises(ValueError):
            a + b

    def test_division_by_zero(self):
        t = generator(-2, 0, 1)
        with pytest.raises(ZeroDivisionError):
            t / (t - t)

    @given(st.fractions(min_value=-50, max_value=50, max_denominator=20),
           st.fractions(min_value=-50, max_value=50, max_denominator=20))
    def test_inverse_property(self, a, b):
        t = generator(-2, 0, 1)
        x = t * a + b
        if x == t - t:
            return
        assert (x * scalar_inv(x)).as_fraction() == 1

    @given(*(st.fractions(min_value=-20, max_value=20, max_denominator=10) for _ in range(6)))
    def test_field_axioms(self, a0, a1, b0, b1, c0, c1):
        t = generator(-1, -1, 0, 1)
        x, y, z = t * a1 + a0, t * b1 + b0, t * c1 + c0
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x


class TestFormatting:
    def test_rational_round_trip(self):
        assert parse_scalar(format_scalar(Fraction(-7, 3))) == Fraction(-7, 3)

    def test_number_field_round_trip(self):
        t = generator(-2, 0, 1)
        x = t * Fraction(3, 2) + 5
        assert parse_scalar(format_scalar(x)) == x


class TestReadRational:
    @pytest.mark.parametrize("text", ["1e3000000", "1E5", " -2.5e-3 ", ".5e1", "1_0e1"])
    def test_exponent_forms_refused(self, text):
        with pytest.raises(ParseError, match="exponent"):
            read_rational(text)
        with pytest.raises(ParseError, match="exponent"):
            parse_scalar(text)
        with pytest.raises(ParseError, match="exponent"):
            parse_scalar(f"[0 {text}] mod [-2 0 1]")

    def test_plain_literals(self):
        assert read_rational(" -7/3 ") == Fraction(-7, 3)
        assert read_rational("2.5") == Fraction(5, 2)
        assert read_rational("4") == 4

    def test_other_malformed_text_is_no_parse_error(self):
        # a word with an "e" in it stays the ValueError it was
        with pytest.raises(ValueError) as exc:
            read_rational("hello")
        assert not isinstance(exc.value, ParseError)


def _xgcd(a: UniPoly, b: UniPoly):
    """Extended Euclid over Fraction: (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = a, b
    u0, u1 = UniPoly([1]), UniPoly()
    v0, v1 = UniPoly(), UniPoly([1])
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    inv = scalar_inv(r0.leading())
    return r0.monic(), u0 * inv, v0 * inv


def _shifted_eisenstein(rng, d):
    """A monic irreducible of degree d with non-integral coefficients: an
    Eisenstein polynomial at p, moved by t -> t + a/b with b coprime to d."""
    p = rng.choice((2, 3, 5))
    coeffs = [p * rng.choice((1, -1, p + 1))] + [p * rng.randint(-2, 2) for _ in range(d - 1)]
    shift = P(Fraction(rng.choice((1, -2, 3)), rng.choice((7, 11))), 1)
    m = P()
    for i, c in enumerate(coeffs + [1]):
        m = m + (shift ** i) * c
    return m


def _residue(rng, d):
    return P(*(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(0, d))))


class TestNumberFieldKernel:
    """The integer kernel against UniPoly arithmetic over Fraction modulo m."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_against_fraction_reference(self, d):
        rng = random.Random(f"kernel/{d}")
        for _ in range(3):
            m = _shifted_eisenstein(rng, d)
            assert any(c.denominator > 1 for c in m.coeffs)
            residues = [_residue(rng, d) for _ in range(8)]
            elements = [NumberFieldElement(m, r) for r in residues]
            for ra, a in zip(residues, elements):
                assert a.residue == ra.coeffs
                assert parse_scalar(format_scalar(a)) == a
                if a.is_rational():
                    assert hash(a) == hash(a.as_fraction())
                if a.is_zero():
                    with pytest.raises(ZeroDivisionError):
                        a.inverse()
                    continue
                g, u, _ = _xgcd(ra, m)
                assert g == P(1)
                assert a.inverse().residue == (u % m).coeffs
                assert a * a.inverse() == 1
                for rb, b in zip(residues, elements):
                    assert (a + b).residue == ((ra + rb) % m).coeffs
                    assert (a - b).residue == ((ra - rb) % m).coeffs
                    assert (a * b).residue == ((ra * rb) % m).coeffs
                    assert NumberFieldElement(m, ra * rb) == a * b
                    assert (a == b) == (ra == rb)
                    assert (a == b) <= (hash(a) == hash(b))
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                assert (a * c).residue == (ra * c).coeffs
                assert (c - a).residue == (P(c) - ra).coeffs

    @pytest.mark.parametrize("d", range(1, 7))
    def test_table_against_fraction_construction(self, d):
        # the reduction table t^k mod m, k = d .. 2d-2, run in Fractions and
        # put over the lcm of its reduced denominators
        def reference(modulus):
            rows, row = [], [-c for c in modulus[:-1]]
            for _ in range(d - 1):
                rows.append(row)
                row = [(row[j - 1] if j else 0) - row[-1] * modulus[j] for j in range(d)]
            scale = math.lcm(*(c.denominator for r in rows for c in r))
            return tuple(tuple(int(c * scale) for c in r) for r in rows), scale

        rng = random.Random(f"table/{d}")
        moduli = [_shifted_eisenstein(rng, d) for _ in range(4)]
        # an odd numerator over an even denominator keeps m_0 non-integral
        moduli += [P(Fraction(rng.randrange(-9, 10, 2), rng.choice((2, 4, 6))),
                     *(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4, 6, 9))) for _ in range(d - 1)), 1)
                   for _ in range(8)]
        for m in moduli:
            modulus = tuple(Fraction(c) for c in m.coeffs)
            assert any(c.denominator > 1 for c in modulus)
            field = _Field(modulus)
            assert (field.table, field.scale) == reference(modulus)

    def test_field_rebuilt_after_eviction(self):
        # the per-field tables are cached with a bound; an element of a field
        # whose table was dropped still mixes with one built afterwards
        m = _shifted_eisenstein(random.Random("evict"), 3)
        a = NumberFieldElement(m, P(1, 2))
        for k in range(200):
            NumberFieldElement(P(-k - 2, 0, 1), P(0, 1))
        b = NumberFieldElement(m, P(1, 2))
        assert a == b and hash(a) == hash(b)
        assert (a * b).residue == ((P(1, 2) * P(1, 2)) % m).coeffs

    @pytest.mark.parametrize("modulus, residue", [
        ((-1, 0, 1), (-1, 1)),  # t - 1 in Q[t]/(t^2 - 1)
        ((0, -1, 0, 1), (0, 1)),  # t in Q[t]/(t^3 - t)
    ])
    def test_zero_divisor_inverse_raises_value_error(self, modulus, residue):
        # a reducible modulus is refused the same way at every degree
        with pytest.raises(ValueError):
            NumberFieldElement(P(*modulus), P(*residue)).inverse()
