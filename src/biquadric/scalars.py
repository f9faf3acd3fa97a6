"""Exact scalar arithmetic: rationals, univariate polynomials, simple number fields.

A rational is an ``int`` when it is integral and a ``fractions.Fraction`` only
when it is not (``as_scalar``); a division goes through ``scalar_inv`` or
``Fraction(n, d)``, never ``int / int``.  Univariate polynomials are dense
coefficient lists over a field (rationals or a number field).  Number field
elements are residues modulo a monic irreducible rational polynomial of degree
at most 6, held as integers over one denominator; all arithmetic is exact.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Iterable, List, Tuple, Union

Scalar = Union[int, Fraction, "NumberFieldElement"]

FACTOR_DEGREE_CAP = 12
MODULUS_DEGREE_CAP = 6


_EXPONENT_LITERAL = re.compile(r"\s*[-+]?(\d[\d_]*\.?[\d_]*|\.\d[\d_]*)[eE][-+]?\d[\d_]*\s*")


class ParseError(ValueError):
    pass


def read_rational(text: str) -> Fraction:
    """The one reader of a rational scalar literal ("-7/3", "2", "0.5").  A
    literal that Fraction reads with an exponent, such as "1e3000000", is
    refused: it builds 10^e exactly, and ``format_scalar`` never writes one."""
    if _EXPONENT_LITERAL.fullmatch(text):
        raise ParseError(f"exponent forms such as {text.strip()[:40]!r} are not scalar literals")
    return Fraction(text)


def as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not a rational scalar: {c!r}")


def as_scalar(c):
    """A number-field element as it is, an integral rational as an int and
    any other rational as a Fraction."""
    if isinstance(c, (int, NumberFieldElement)):
        return c
    c = as_fraction(c)
    return c.numerator if c.denominator == 1 else c


def is_zero_scalar(c) -> bool:
    if isinstance(c, NumberFieldElement):
        return c.is_zero()
    return c == 0


def scalar_inv(c):
    """Multiplicative inverse of a nonzero rational or NumberFieldElement."""
    if isinstance(c, NumberFieldElement):
        return c.inverse()
    return as_scalar(Fraction(1, as_fraction(c)))


class UniPoly:
    """Dense univariate polynomial; coefficients rational or NumberFieldElement.

    Coefficient i is the coefficient of t**i; the list carries no trailing
    zeros, and the zero polynomial has an empty list.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and is_zero_scalar(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def gen(cls) -> "UniPoly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = a[i] + c
        return UniPoly(a)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            return UniPoly([c * other for c in self.coeffs])
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        nonzero = [(j, b) for j, b in enumerate(other.coeffs) if not is_zero_scalar(b)]
        for i, a in enumerate(self.coeffs):
            if is_zero_scalar(a):
                continue
            for j, b in nonzero:
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        return power(self, n, UniPoly([1]))

    @staticmethod
    def _coerce(other) -> "UniPoly":
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            return UniPoly([other])
        raise TypeError(f"cannot coerce {other!r} to UniPoly")

    def divmod(self, other: "UniPoly"):
        """Exact polynomial division with remainder over the coefficient field."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        inv_lead = scalar_inv(other.leading())
        d = other.degree
        while len(rem) - 1 >= d and rem:
            while rem and is_zero_scalar(rem[-1]):
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            q = rem[-1] * inv_lead
            quo[k] = q
            for i, c in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - q * c
            rem.pop()
        return UniPoly(quo), UniPoly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        inv = scalar_inv(self.leading())
        return UniPoly([c * inv for c in self.coeffs])

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def is_rational(self) -> bool:
        return all(isinstance(c, (int, Fraction)) for c in self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if is_zero_scalar(c):
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{i}")
        return "UniPoly(" + " + ".join(parts) + ")"


def uv_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor; uv_gcd(0, 0) = 0.  Over a number field
    by Euclid's algorithm; over Q by the primitive PRS, on integer primitive
    parts with pseudo-remainders over Z (Collins, JACM 1967; Brown and
    Traub, JACM 1971), so no rational arithmetic runs."""
    if a.is_rational() and b.is_rational():
        a, b = primitive_integers(a.coeffs), primitive_integers(b.coeffs)
        while b:
            while len(a) >= len(b):  # a becomes lead(b)^k a mod b
                top = a.pop()
                a = [x * b[-1] for x in a]
                for i, c in enumerate(b[:-1], len(a) + 1 - len(b)):
                    a[i] -= top * c
                while a and not a[-1]:
                    a.pop()
            a, b = b, primitive_integers(a)
        a, b = UniPoly(a), UniPoly()
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def primitive_integers(coeffs) -> List[int]:
    """Rational coefficients times the positive rational making them coprime integers."""
    coeffs = list(coeffs)
    den = math.lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*nums)
    return [n // g for n in nums]


def _to_sympy(p: UniPoly):
    import sympy  # on first use: importing it costs more than most runs

    if not p.is_rational():
        raise TypeError("sympy conversion requires rational coefficients")
    return sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("t"), domain="QQ")


def _from_sympy(sp) -> UniPoly:
    return UniPoly(list(reversed([Fraction(c.p, c.q) for c in sp.all_coeffs()])))


def uv_factorize(p: UniPoly):
    """Complete factorization over the rationals into monic irreducibles.

    Returns a list of (factor, multiplicity); degree is capped because every
    polynomial factored here arises from the fixed bidegree-(2,2) shape.
    """
    if p.is_zero():
        raise ValueError("factorization of the zero polynomial")
    if p.degree > FACTOR_DEGREE_CAP:
        raise ValueError(f"degree {p.degree} exceeds cap {FACTOR_DEGREE_CAP}")
    if p.degree == 0:
        return []
    _, factors = _to_sympy(p).factor_list()
    return [(_from_sympy(f).monic(), int(m)) for f, m in factors]


def squarefree_part(c: Fraction) -> int:
    """An integer d with Q(sqrt(c)) = Q(sqrt(d)), for nonzero c: c's numerator
    times its denominator, less the squares of the primes below 1000.  No
    integer is factored, so the square of a larger prime may stay in d."""
    n = c.numerator * c.denominator
    for p in range(2, 1000):  # no composite p^2 is left to divide n by then
        while n % (p * p) == 0:
            n //= p * p
    return n


class _Field:
    """Q[t]/(m) as the arithmetic needs it.  `table` holds t^k mod m for
    k = d .. 2d-2 as integer rows over the one denominator `scale`, so a
    product of two residues folds its high coefficients in integers."""

    __slots__ = ("modulus", "degree", "table", "scale")

    def __init__(self, modulus: Tuple[Fraction, ...]):
        d = len(modulus) - 1
        if d < 1 or d > MODULUS_DEGREE_CAP:
            raise ValueError(f"modulus degree {d} out of range")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        # t^d = -(m_0 + ... + m_{d-1} t^{d-1}) and t^(k+1) is t^k shifted, its
        # t^d term folded back; with m = n / den, t^(d+k) is a row over den^(k+1)
        den = math.lcm(*(c.denominator for c in modulus))
        n = [c.numerator * (den // c.denominator) for c in modulus[:-1]]
        rows, row = [], [-c for c in n]
        for k in range(d - 1):
            rows.append((den ** (k + 1), row))
            row = [(den * row[j - 1] if j else 0) - row[-1] * n[j] for j in range(d)]
        self.scale = math.lcm(*(p // math.gcd(p, c) for p, r in rows for c in r))
        self.table = tuple(tuple(c * self.scale // p for c in r) for p, r in rows)
        self.modulus, self.degree = modulus, d


_field = functools.lru_cache(maxsize=64)(_Field)


def _element(field: _Field, num: List[int], den: int) -> "NumberFieldElement":
    """The element num/den of field, den > 0, made canonical: no trailing
    zeros, gcd(den, *num) = 1, so den = 1 for zero."""
    while num and not num[-1]:
        num.pop()
    g = math.gcd(den, *num)
    e = object.__new__(NumberFieldElement)
    e.field = field
    e.num, e.den = (tuple(num), den) if g == 1 else (tuple(n // g for n in num), den // g)
    return e


def _fold(field: _Field, c) -> List[int]:
    """scale * (c mod m) as d integers, c an integer polynomial of degree at
    most 2d - 2."""
    d, scale = field.degree, field.scale
    low = [x * scale for x in c[:d]] + [0] * (d - len(c))
    for h, row in zip(c[d:], field.table):
        if h:
            for i, r in enumerate(row):
                low[i] += h * r
    return low


class NumberFieldElement:
    """Residue modulo a monic irreducible rational polynomial m(t), deg <= 6.

    An element is an integer numerator tuple `num` over a positive integer
    `den`, kept canonical, so equal elements have equal parts.  The field is
    carried with every element; mixing elements of distinct fields is an
    error (no composite fields are ever constructed).
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, modulus, residue):
        mod = modulus if isinstance(modulus, UniPoly) else UniPoly(modulus)
        field = _field(tuple(as_fraction(c) for c in mod.coeffs))
        res = residue if isinstance(residue, UniPoly) else UniPoly(residue)
        if res.degree >= field.degree:
            res = res % UniPoly(field.modulus)
        coeffs = [as_fraction(c) for c in res.coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        e = _element(field, [c.numerator * (den // c.denominator) for c in coeffs], den)
        self.field, self.num, self.den = field, e.num, e.den

    @classmethod
    def from_rational(cls, modulus, c) -> "NumberFieldElement":
        c = as_fraction(c)
        field = _field(tuple(as_fraction(m) for m in modulus))
        return _element(field, [c.numerator], c.denominator)

    @property
    def modulus(self) -> Tuple[Fraction, ...]:
        return self.field.modulus

    @property
    def residue(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.num)

    def _lift(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field is not self.field and other.modulus != self.modulus:
                raise ValueError("number field modulus mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return _element(self.field, [other.numerator], other.denominator)
        return None

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return len(self.num) <= 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den) if self.num else Fraction(0)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_fraction() == other
        if not isinstance(other, NumberFieldElement):
            return NotImplemented
        return self.num == other.num and self.den == other.den and (
            self.field is other.field or self.modulus == other.modulus)

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_fraction())
        return hash((self.modulus, self.residue))

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b, den = self.num, o.num, self.den
        if o.den != den:
            a, b, den = [x * o.den for x in a], [y * den for y in b], den * o.den
        if len(a) < len(b):
            a, b = b, a
        return _element(self.field, [x + y for x, y in zip(a, b)] + list(a[len(b):]), den)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.field, [-n for n in self.num], self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _element(self.field, [n * other.numerator for n in self.num],
                            self.den * other.denominator)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b, field = self.num, o.num, self.field
        if not a or not b:
            return _element(field, [], 1)
        c = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[i + j] += x * y
        den = self.den * o.den
        if len(c) > field.degree:
            c, den = _fold(field, c), den * field.scale
        return _element(field, c, den)

    __rmul__ = __mul__

    def inverse(self) -> "NumberFieldElement":
        """x with num * x = den mod m, by Bareiss elimination over Z on the
        columns scale * (num * t^j mod m): the solution of that system
        against e0 is w / det with w integral (Cramer), and x is
        scale * den * w / det."""
        if self.is_zero():
            raise ZeroDivisionError("number field division by zero")
        field, d = self.field, self.field.degree
        cols = [_fold(field, [0] * j + list(self.num)) for j in range(d)]
        a = [[col[i] for col in cols] + [int(i == 0)] for i in range(d)]
        prev = 1
        for k in range(d):
            p = next((i for i in range(k, d) if a[i][k]), None)
            if p is None:
                raise ValueError("modulus is not irreducible: gcd with residue nontrivial")
            a[k], a[p] = a[p], a[k]
            pivot = a[k]
            for row in a[k + 1:]:
                row[k + 1:] = [(pivot[k] * row[j] - row[k] * pivot[j]) // prev
                               for j in range(k + 1, d + 1)]
            prev = pivot[k]
        w = [0] * d
        for i in reversed(range(d)):
            w[i] = (prev * a[i][d] - sum(a[i][j] * w[j] for j in range(i + 1, d))) // a[i][i]
        scale = field.scale * self.den * (1 if prev > 0 else -1)
        return _element(field, [x * scale for x in w], abs(prev))

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, _element(self.field, [1], 1))

    def __repr__(self):
        res = UniPoly(self.residue)
        mod = UniPoly(self.modulus)
        return f"({res!r} mod {mod!r})"

    def format(self) -> str:
        """Stable text form used in certificate files."""
        res = " ".join(str(c) for c in self.residue) or "0"
        mod = " ".join(str(c) for c in self.modulus)
        return f"[{res}] mod [{mod}]"

    @classmethod
    def parse(cls, text: str) -> "NumberFieldElement":
        res_part, mod_part = text.split("] mod [")
        res = [read_rational(c) for c in res_part.strip().lstrip("[").split()]
        mod = [read_rational(c) for c in mod_part.strip().rstrip("]").split()]
        return cls(mod, res)


def power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply; `one` is the unit of base's ring."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def uv_roots(p: UniPoly) -> List[Tuple[Scalar, int]]:
    """Roots of p with their multiplicities, p over Q or over one number field.

    Over Q, an irreducible factor of degree >= 2 contributes one root: the
    generator of the number field that the factor defines; p counts as over
    Q if it is once made monic.  Over a number field, only a linear p or a
    double root is found: two distinct roots raise NotImplementedError.
    """
    if p.degree < 1:
        return []
    p = p.monic()
    if p.degree == 1:
        return [(-p.coeffs[0], 1)]
    rational = [c.as_fraction() if isinstance(c, NumberFieldElement) and c.is_rational() else c
                for c in p.coeffs]
    if all(isinstance(c, (int, Fraction)) for c in rational):
        return [
            (-fac.coeffs[0] if fac.degree == 1 else NumberFieldElement(fac, UniPoly.gen()), mult)
            for fac, mult in uv_factorize(UniPoly(rational))
        ]
    if p.degree == 2:
        half = p.coeffs[1] * Fraction(1, 2)
        if is_zero_scalar(half * half - p.coeffs[0]):
            return [(-half, 2)]
    raise NotImplementedError(
        "roots outside the coefficients' number field (a tower) are not supported"
    )


def format_scalar(c) -> str:
    if isinstance(c, NumberFieldElement):
        if c.is_rational():
            return str(c.as_fraction())
        return c.format()
    return str(as_fraction(c))


def parse_scalar(text: str):
    text = text.strip()
    if "mod" in text:
        return NumberFieldElement.parse(text)
    return read_rational(text)
