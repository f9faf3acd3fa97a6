"""Exact scalar arithmetic: rationals, univariate polynomials, simple number fields.

Rationals are plain ``fractions.Fraction``.  Univariate polynomials are dense
coefficient lists over a field (rationals or a number field).  Number field
elements are residues modulo a monic irreducible rational polynomial of degree
at most 6; all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Tuple, Union

Scalar = Union[int, Fraction, "NumberFieldElement"]

FACTOR_DEGREE_CAP = 12
MODULUS_DEGREE_CAP = 6


def as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not a rational scalar: {c!r}")


def as_scalar(c):
    """A number-field element as it is, anything else as a Fraction."""
    return c if isinstance(c, NumberFieldElement) else as_fraction(c)


def is_zero_scalar(c) -> bool:
    if isinstance(c, NumberFieldElement):
        return c.is_zero()
    return c == 0


def scalar_inv(c):
    """Multiplicative inverse of a nonzero Fraction or NumberFieldElement."""
    if isinstance(c, NumberFieldElement):
        return c.inverse()
    return Fraction(1) / as_fraction(c)


class UniPoly:
    """Dense univariate polynomial; coefficients Fraction or NumberFieldElement.

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
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = a[i] + c
        return UniPoly(a)

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
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if is_zero_scalar(a):
                continue
            for j, b in enumerate(other.coeffs):
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
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
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
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def is_rational(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.coeffs)

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
    """Monic greatest common divisor; uv_gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def uv_xgcd(a: UniPoly, b: UniPoly):
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g, g monic."""
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


class NumberFieldElement:
    """Residue modulo a monic irreducible rational polynomial m(t), deg <= 6.

    The modulus is carried with every element; mixing elements of distinct
    fields is an error (no composite fields are ever constructed).
    """

    __slots__ = ("modulus", "residue")

    def __init__(self, modulus, residue, *, _checked=False):
        if isinstance(modulus, UniPoly):
            modulus = tuple(as_fraction(c) for c in modulus.coeffs)
        else:
            modulus = tuple(as_fraction(c) for c in modulus)
        if not _checked:
            m = UniPoly(modulus)
            if m.degree < 1 or m.degree > MODULUS_DEGREE_CAP:
                raise ValueError(f"modulus degree {m.degree} out of range")
            if m.leading() != 1:
                raise ValueError("modulus must be monic")
        self.modulus = modulus
        if isinstance(residue, tuple):
            while residue and not residue[-1]:
                residue = residue[:-1]
            if len(residue) < len(modulus) or not residue:
                self.residue = residue
                return
            res = UniPoly(residue)
        elif isinstance(residue, UniPoly):
            res = residue
        else:
            res = UniPoly(residue)
        if res.degree >= len(modulus) - 1:
            res = res % UniPoly(modulus)
        self.residue = tuple(res.coeffs)

    @classmethod
    def from_rational(cls, modulus, c) -> "NumberFieldElement":
        return cls(modulus, UniPoly([as_fraction(c)]), _checked=True)

    def _same_field(self, other: "NumberFieldElement"):
        if self.modulus != other.modulus:
            raise ValueError("number field modulus mismatch")

    def _lift(self, other):
        if isinstance(other, NumberFieldElement):
            self._same_field(other)
            return other
        if isinstance(other, (int, Fraction)):
            return NumberFieldElement.from_rational(self.modulus, other)
        return None

    def is_zero(self) -> bool:
        return not self.residue

    def is_rational(self) -> bool:
        return len(self.residue) <= 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.residue[0] if self.residue else Fraction(0)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NumberFieldElement.from_rational(self.modulus, other)
        if not isinstance(other, NumberFieldElement):
            return NotImplemented
        return self.modulus == other.modulus and self.residue == other.residue

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_fraction())
        return hash((self.modulus, self.residue))

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.residue, o.residue
        if len(a) < len(b):
            a, b = b, a
        summed = tuple(x + y for x, y in zip(a, b)) + a[len(b):]
        return NumberFieldElement(self.modulus, summed, _checked=True)

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.modulus, tuple(-c for c in self.residue), _checked=True)

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
            if not other:
                return NumberFieldElement(self.modulus, (), _checked=True)
            return NumberFieldElement(
                self.modulus, tuple(c * other for c in self.residue), _checked=True
            )
        o = self._lift(other)
        if o is None:
            return NotImplemented
        m = self.modulus
        if len(m) == 3:
            # quadratic field: reduce t^2 = -m0 - m1 t directly (m is monic)
            a, b = self.residue, o.residue
            a0 = a[0] if a else Fraction(0)
            a1 = a[1] if len(a) > 1 else Fraction(0)
            b0 = b[0] if b else Fraction(0)
            b1 = b[1] if len(b) > 1 else Fraction(0)
            high = a1 * b1
            if high:
                res = (a0 * b0 - high * m[0], a0 * b1 + a1 * b0 - high * m[1])
            else:
                res = (a0 * b0, a0 * b1 + a1 * b0)
            return NumberFieldElement(m, res, _checked=True)
        prod = UniPoly(self.residue) * UniPoly(o.residue)
        return NumberFieldElement(m, prod % UniPoly(m), _checked=True)

    __rmul__ = __mul__

    def inverse(self) -> "NumberFieldElement":
        if self.is_zero():
            raise ZeroDivisionError("number field division by zero")
        m = self.modulus
        if len(m) == 3:
            # quadratic field: multiply by the conjugate over the norm
            a = self.residue
            a0 = a[0] if a else Fraction(0)
            a1 = a[1] if len(a) > 1 else Fraction(0)
            norm = a0 * a0 - a0 * a1 * m[1] + a1 * a1 * m[0]
            return NumberFieldElement(
                m, ((a0 - a1 * m[1]) / norm, -a1 / norm), _checked=True
            )
        g, u, _ = uv_xgcd(UniPoly(self.residue), UniPoly(self.modulus))
        if g.degree != 0:
            raise ValueError("modulus is not irreducible: gcd with residue nontrivial")
        return NumberFieldElement(self.modulus, u * scalar_inv(g.leading()), _checked=True)

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
        return power(self, n, NumberFieldElement.from_rational(self.modulus, 1))

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
        res = [Fraction(c) for c in res_part.strip().lstrip("[").split()]
        mod = [Fraction(c) for c in mod_part.strip().rstrip("]").split()]
        return cls(mod, res)


def promote_pair(a, b):
    """Bring two scalars into a common field (rationals or one number field)."""
    a_nf = isinstance(a, NumberFieldElement)
    b_nf = isinstance(b, NumberFieldElement)
    if a_nf and b_nf:
        if a.modulus != b.modulus:
            raise ValueError("cannot mix two distinct number fields")
        return a, b
    if a_nf:
        return a, NumberFieldElement.from_rational(a.modulus, as_fraction(b))
    if b_nf:
        return NumberFieldElement.from_rational(b.modulus, as_fraction(a)), b
    return as_fraction(a), as_fraction(b)


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
    if all(isinstance(c, Fraction) for c in rational):
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
    return Fraction(text)
