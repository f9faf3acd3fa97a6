"""Bihomogeneous polynomials on P^1 x P^2, coordinate frames and charts.

The central object is :class:`BiPoly`: a polynomial that is homogeneous of
degree d1 in (x0, x1) and degree d2 in (y0, y1, y2), stored as that bidegree
over the one sparse polynomial type, :class:`AffinePoly`, a canonical
monomial-to-coefficient map over an exact scalar field.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple

from .scalars import (
    NumberFieldElement,
    ParseError,
    as_fraction,
    as_scalar,
    format_scalar,
    is_zero_scalar,
    power,
)

X_VARS = ("x0", "x1")
Y_VARS = ("y0", "y1", "y2")
ALL_VARS = X_VARS + Y_VARS

BiMonomial = Tuple[int, int, int, int, int]


def _add_into(terms: dict, key, value):
    if key in terms:
        s = terms[key] + value
        if is_zero_scalar(s):
            del terms[key]
        else:
            terms[key] = s
    elif not is_zero_scalar(value):
        terms[key] = value


class AffinePoly:
    """Sparse polynomial in a fixed tuple of named variables.

    Carries the terms of every BiPoly, and serves chart expansions, conic
    restrictions and the local-ring linear algebra; coefficients are rational
    (see ``as_scalar``) or NumberFieldElement.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Tuple[int, ...], object] = ()):
        self.vars = tuple(variables)
        cleaned: dict = {}
        for exps, c in dict(terms).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.vars):
                raise ValueError("exponent arity mismatch")
            _add_into(cleaned, exps, as_scalar(c))
        self.terms = cleaned

    @classmethod
    def constant(cls, variables, c) -> "AffinePoly":
        return cls(variables, {tuple([0] * len(variables)): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, AffinePoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("variable tuples differ")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            other = AffinePoly.constant(self.vars, other)
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            _add_into(terms, exps, c)
        out = AffinePoly(self.vars)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = AffinePoly(self.vars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            other = AffinePoly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            if is_zero_scalar(other):
                return AffinePoly(self.vars)
            out = AffinePoly(self.vars)
            out.terms = {e: c * other for e, c in self.terms.items()}
            return out
        self._check(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                _add_into(terms, key, c1 * c2)
        out = AffinePoly(self.vars)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, AffinePoly.constant(self.vars, 1))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_part(self, d: int) -> "AffinePoly":
        """Sum of the total-degree-d terms."""
        if d < 0:
            raise ValueError("negative degree")
        out = AffinePoly(self.vars)
        out.terms = {e: c for e, c in self.terms.items() if sum(e) == d}
        return out

    def partial(self, name: str) -> "AffinePoly":
        i = self.vars.index(name)
        terms: dict = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            key = e[:i] + (e[i] - 1,) + e[i + 1 :]
            _add_into(terms, key, c * e[i])
        out = AffinePoly(self.vars)
        out.terms = terms
        return out

    def evaluate(self, point: Sequence):
        """Value at a point given by one scalar or polynomial per variable, in
        order; each power of a coordinate is computed once."""
        if len(point) != len(self.vars):
            raise ValueError("point arity mismatch")
        powers = [[1, x] for x in point]  # powers[i][k] is point[i] ** k
        acc = 0
        for e, c in self.terms.items():
            v = c
            for ps, k in zip(powers, e):
                if k:
                    while len(ps) <= k:
                        ps.append(ps[-1] * ps[1])
                    v = v * ps[k]
            acc = acc + v
        return acc

    def coefficient(self, exps: Tuple[int, ...]):
        return self.terms.get(tuple(exps), 0)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{p}" if p > 1 else v for v, p in zip(self.vars, e) if p
            )
            cs = format_scalar(c)
            if mono:
                parts.append(f"({cs})*{mono}" if ("/" in cs or " " in cs) else (mono if cs == "1" else f"{cs}*{mono}"))
            else:
                parts.append(cs)
        return " + ".join(parts)


class BiPoly:
    """Bihomogeneous polynomial: a formal bidegree (d1, d2) over an AffinePoly
    in (x0, x1, y0, y1, y2) every monomial of which has that bidegree.

    Monomials are flat exponent tuples (a0, a1, b0, b1, b2).
    """

    __slots__ = ("bidegree", "poly")

    def __init__(self, bidegree: Tuple[int, int], terms: "AffinePoly | Mapping[BiMonomial, object]" = ()):
        d1, d2 = self.bidegree = (int(bidegree[0]), int(bidegree[1]))
        self.poly = terms if isinstance(terms, AffinePoly) else AffinePoly(ALL_VARS, terms)
        if self.poly.vars != ALL_VARS:
            raise ValueError(f"expected a polynomial in {ALL_VARS}")
        for m in self.poly.terms:
            if m[0] + m[1] != d1 or m[2] + m[3] + m[4] != d2 or min(m) < 0:
                raise ValueError(f"monomial {m} does not match bidegree {self.bidegree}")

    @property
    def terms(self) -> Dict[BiMonomial, object]:
        return self.poly.terms

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __bool__(self):
        return bool(self.poly)

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.bidegree == other.bidegree and self.poly == other.poly

    def __hash__(self):
        return hash((self.bidegree, self.poly))

    def coefficient(self, monomial: BiMonomial):
        return self.poly.coefficient(monomial)

    def __add__(self, other):
        if self.bidegree != other.bidegree:
            raise ValueError("bidegree mismatch")
        return BiPoly(self.bidegree, self.poly + other.poly)

    def __neg__(self):
        return BiPoly(self.bidegree, -self.poly)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            d1, d2 = self.bidegree
            return BiPoly((d1 + other.bidegree[0], d2 + other.bidegree[1]), self.poly * other.poly)
        return BiPoly(self.bidegree, self.poly * other)

    __rmul__ = __mul__

    def partial(self, var: str) -> "BiPoly":
        """Formal partial derivative with respect to one of the five variables."""
        if var not in ALL_VARS:
            raise ValueError(f"unknown variable {var!r}")
        d1, d2 = self.bidegree
        new_deg = (d1 - 1, d2) if var in X_VARS else (d1, d2 - 1)
        return BiPoly(new_deg, self.poly.partial(var))

    def dehomogenize(self) -> AffinePoly:
        """The chart x0 = y0 = 1: a polynomial in (x1, y1, y2)."""
        terms: dict = {}
        for m, c in self.terms.items():
            _add_into(terms, (m[1], m[3], m[4]), c)
        return AffinePoly(("x1", "y1", "y2"), terms)

    def evaluate(self, x_point, y_point):
        """Evaluate at projective-coordinate tuples (exact scalars)."""
        return self.poly.evaluate(tuple(x_point) + tuple(y_point))

    def sorted_terms(self):
        """Terms in the canonical order: lexicographic on (a0, b0, b1), descending."""
        return sorted(
            self.terms.items(),
            key=lambda kv: (kv[0][0], kv[0][2], kv[0][3]),
            reverse=True,
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = []
            for v, p in zip(ALL_VARS, e):
                if p == 1:
                    mono.append(v)
                elif p > 1:
                    mono.append(f"{v}^{p}")
            m = "*".join(mono) if mono else "1"
            cs = format_scalar(c)
            if cs == "1" and mono:
                parts.append(m)
            elif cs == "-1" and mono:
                parts.append(f"-{m}")
            elif "mod" in cs:
                parts.append(f"({cs})*{m}")
            else:
                parts.append(f"{cs}*{m}")
        return " + ".join(parts).replace("+ -", "- ")


def all_monomials(bidegree: Tuple[int, int] = (2, 2)):
    """The monomial basis of the given bidegree (18 monomials for (2,2)),
    x-monomials outer, each part lexicographically descending."""
    return [a + b for a in monomial_basis(2, bidegree[0])[0] for b in monomial_basis(3, bidegree[1])[0]]


# ---------------------------------------------------------------------------
# Parsing


class _Parser:
    """Recursive-descent parser for the input grammar.

    Grammar: sums/differences of products of powers of the five variables,
    rational literals p/q, parenthesized subexpressions and unary minus.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _digits(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return self.text[start : self.pos]

    def _expect(self, ch):
        if self._peek() != ch:
            raise ParseError(f"expected {ch!r} at position {self.pos} in {self.text!r}")
        self.pos += 1

    def parse(self) -> AffinePoly:
        p = self.parse_sum()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"trailing input at position {self.pos} in {self.text!r}")
        # a rational literal can leave an integral Fraction behind
        p.terms = {e: as_scalar(c) for e, c in p.terms.items()}
        # refuse a coefficient that no output could print, however it arose;
        # a number of more than `limit` digits has more than 3 * limit bits
        limit = sys.get_int_max_str_digits()
        tops = (max(abs(c.numerator), c.denominator) for c in p.terms.values())
        if limit and any(t.bit_length() > 3 * limit and t >= 10 ** limit for t in tops):
            raise ParseError(f"a coefficient has more than {limit} digits")
        return p

    def parse_sum(self) -> AffinePoly:
        if self._peek() == "+":
            self.pos += 1
        acc = AffinePoly(ALL_VARS)
        sign = 1
        while True:
            # each summand is added into the one dict, not into a copy of it
            for e, c in self.parse_product():
                _add_into(acc.terms, e, c if sign > 0 else -c)
            ch = self._peek()
            if ch not in ("+", "-"):
                return acc
            self.pos += 1
            sign = 1 if ch == "+" else -1

    def _check_degree(self, degree: int):
        """Refuse a product of non-constant factors above degree 4 before
        expanding it: every term of a (2,2)-form has degree 4."""
        if degree > 4:
            raise ParseError(f"product of total degree {degree} ending at position "
                             f"{self.pos}; a (2,2)-form has degree 4")

    def parse_product(self):
        """The terms of a product: literals and variable powers multiply into
        one term, and only parenthesized factors expand as polynomials."""
        coeff, exps, poly, degree = 1, (0,) * len(ALL_VARS), None, 0
        while True:
            factor = self.parse_power()
            degrees = (degree, _degree(factor))
            if min(degrees) > 0:
                self._check_degree(sum(degrees))
            degree = -1 if -1 in degrees else sum(degrees)
            if isinstance(factor, AffinePoly):
                poly = factor if poly is None else poly * factor
            else:
                coeff, exps = coeff * factor[0], tuple(a + b for a, b in zip(exps, factor[1]))
            # "a*b", or implicit multiplication as in "2x0" or "x0(y1+y2)"
            ch = self._peek()
            if ch == "*":
                self.pos += 1
            elif ch != "(" and not ch.isalpha():
                break
        terms = poly.terms.items() if poly is not None else [((0,) * len(ALL_VARS), 1)]
        return [(tuple(a + b for a, b in zip(e, exps)), c * coeff) for e, c in terms]

    def parse_power(self):
        """A (coefficient, exponents) pair, or an AffinePoly if parenthesized."""
        # unary minus signs bind looser than "^": "x0*-y0^2" is x0*(-(y0^2))
        sign = 1
        while self._peek() == "-":
            self.pos += 1
            sign = -sign
        base = self.parse_atom()
        if self._peek() == "^":
            self.pos += 1
            self._skip_ws()
            start, digits = self.pos, self._digits()
            if not digits:
                raise ParseError(f"expected exponent at position {self.pos}")
            n = int(digits)
            if _degree(base) > 0:
                self._check_degree(_degree(base) * n)
            elif _degree(base) == 0:  # refuse a power of a constant that no output could print
                c = as_fraction(base.terms[(0,) * 5] if isinstance(base, AffinePoly) else base[0])
                limit = sys.get_int_max_str_digits() or math.inf
                if n * math.log10(max(abs(c.numerator), c.denominator)) >= limit:
                    raise ParseError(f"the power at position {start} would have more than {limit} digits")
            base = base ** n if isinstance(base, AffinePoly) else (base[0] ** n, tuple(e * n for e in base[1]))
        return base * sign if isinstance(base, AffinePoly) else (base[0] * sign, base[1])

    def parse_atom(self):
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            p = self.parse_sum()
            self._expect(")")
            return p
        if ch.isalpha():
            self.pos += 1
            name = ch + self._digits()
            if name not in ALL_VARS:
                raise ParseError(f"unknown variable {name!r}")
            return 1, tuple(int(v == name) for v in ALL_VARS)
        if ch.isdigit():
            num = int(self._digits())
            if self._peek() == "/":
                self.pos += 1
                self._skip_ws()
                start, digits = self.pos, self._digits()
                if not digits:
                    raise ParseError(f"expected denominator at position {self.pos}")
                den = int(digits)
                if den == 0:
                    raise ParseError(f"zero denominator at position {start}")
                num = as_scalar(Fraction(num, den))
            return num, (0,) * len(ALL_VARS)
        raise ParseError(f"unexpected character {ch!r} at position {self.pos} in {self.text!r}")


def _degree(factor) -> int:
    """Total degree of a parsed factor; -1 if it is zero."""
    if isinstance(factor, AffinePoly):
        return factor.total_degree()
    return sum(factor[1]) if factor[0] else -1


def parse(text: str) -> BiPoly:
    """Parse the text grammar into a canonical BiPoly.

    Raises ParseError for malformed syntax, nesting deeper than the
    interpreter's recursion limit included, and ValueError for inputs that
    are not bihomogeneous.
    """
    parser = _Parser(text)
    try:
        p = parser.parse()
    except RecursionError:
        raise ParseError(f"parentheses nested too deeply at position {parser.pos}") from None
    if p.is_zero():
        raise ValueError("the zero polynomial has no bidegree")
    degs = {(e[0] + e[1], e[2] + e[3] + e[4]) for e in p.terms}
    if len(degs) != 1:
        raise ValueError(f"polynomial is not bihomogeneous: bidegrees {sorted(degs)}")
    return BiPoly(degs.pop(), p)


# ---------------------------------------------------------------------------
# Frames


class FrameChange:
    """A coordinate change: invertible 2x2 and 3x3 matrices acting by substitution.

    Determinant-one normalization is deliberately not required; verdicts are
    invariant under the extra scalar factors because weights have zero row
    sums.
    """

    __slots__ = ("g2", "g3")

    def __init__(self, g2, g3):
        self.g2, self.g3 = (tuple(tuple(as_scalar(c) for c in row) for row in g) for g in (g2, g3))
        if len(self.g2) != 2 or any(len(r) != 2 for r in self.g2):
            raise ValueError("g2 must be 2x2")
        if len(self.g3) != 3 or any(len(r) != 3 for r in self.g3):
            raise ValueError("g3 must be 3x3")
        if is_zero_scalar(det2(self.g2)) or is_zero_scalar(det3(self.g3)):
            raise ValueError("singular frame matrix")

    @classmethod
    def identity(cls) -> "FrameChange":
        return cls(((1, 0), (0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def __eq__(self, other):
        if not isinstance(other, FrameChange):
            return NotImplemented
        return self.g2 == other.g2 and self.g3 == other.g3

    def __repr__(self):
        return f"FrameChange(g2={self.g2}, g3={self.g3})"


def det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def dot(u, v):
    """Dot product of two 3-vectors: a line's value at a point."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u, v):
    """Cross product of two 3-vectors."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def det3(m):
    """The determinant of a 3x3 matrix: the triple product of its rows."""
    return dot(m[0], cross(m[1], m[2]))


def adjugate3(m):
    """The adjugate of a 3x3 matrix: its columns are the cross products of
    the row pairs (1, 2), (2, 0) and (0, 1)."""
    return tuple(zip(cross(m[1], m[2]), cross(m[2], m[0]), cross(m[0], m[1])))


@functools.lru_cache(maxsize=None)
def monomial_basis(n: int, d: int):
    """The degree-d monomials in n variables, lexicographically descending,
    and the position of each."""
    monos = ((d,),) if n == 1 else tuple(
        (k,) + m for k in range(d, -1, -1) for m in monomial_basis(n - 1, d - k)[0])
    return monos, {m: r for r, m in enumerate(monos)}


@functools.lru_cache(maxsize=None)
def _lift_table(n: int, d: int):
    """The index table that builds Sym^d(g) from Sym^(d-1)(g): each degree-d
    monomial m as (the position of m / v_k, k), v_k its first variable, and
    each degree-(d-1) monomial's positions times v_0, ..., v_(n-1)."""
    (low, low_position), (high, position) = monomial_basis(n, d - 1), monomial_basis(n, d)
    step = lambda m, i, e: m[:i] + (m[i] + e,) + m[i + 1:]  # noqa: E731
    firsts = [next(i for i, e in enumerate(m) if e) for m in high]
    return (tuple((low_position[step(m, k, -1)], k) for m, k in zip(high, firsts)),
            tuple(tuple(position[step(m, i, 1)] for i in range(n)) for m in low))


def sym_power(g, d: int):
    """Sym^d(g): row r holds the image of the r-th degree-d monomial (in
    ``monomial_basis`` order) under v_k -> sum_i g[i][k] v_i, built from
    Sym^(d-1)(g) one variable at a time; zero entries are skipped."""
    n = len(g)
    columns = [[(i, g[i][k]) for i in range(n) if g[i][k]] for k in range(n)]
    rows = [[1]]
    for e in range(1, d + 1):
        quotients, products = _lift_table(n, e)
        lifted = []
        for j, k in quotients:
            row = [0] * len(quotients)
            for s, c in enumerate(rows[j]):
                if c:
                    for i, gik in columns[k]:
                        row[products[s][i]] += c * gik
            lifted.append(row)
        rows = lifted
    return rows


def coefficient_matrix(f: BiPoly):
    """f's coefficient matrix: row a holds the coefficients of the y-monomials
    that multiply the a-th x-monomial, rows and columns in ``monomial_basis``
    order."""
    (xs, x_position), (ys, y_position) = monomial_basis(2, f.bidegree[0]), monomial_basis(3, f.bidegree[1])
    rows = [[0] * len(ys) for _ in xs]
    for m, c in f.terms.items():
        rows[x_position[m[:2]]][y_position[m[2:]]] = c
    return tuple(map(tuple, rows))


def form_of_matrix(bidegree: Tuple[int, int], rows) -> BiPoly:
    """The form of the given bidegree whose coefficient matrix is `rows`."""
    xs, ys = monomial_basis(2, bidegree[0])[0], monomial_basis(3, bidegree[1])[0]
    if len(rows) != len(xs) or any(len(row) != len(ys) for row in rows):
        raise ValueError(f"a bidegree-{tuple(bidegree)} form has a {len(xs)} x {len(ys)} matrix")
    return BiPoly(bidegree, {x + y: c for x, row in zip(xs, rows) for y, c in zip(ys, row)})


def moved_terms(g2, g3, terms: Mapping[BiMonomial, object]) -> dict:
    """The terms of f(x * g2, y * g3), f of any bidegree (d1, d2): the matrix
    product Sym^d1(g2)^T . C . Sym^d2(g3) on f's coefficient matrix C (rows
    x-monomials, columns y-monomials), skipping zero entries.  Scalars are
    ints, Fractions or number-field elements; a frame holds ``as_scalar``
    entries, so an integer form moves through an integer frame in ints."""
    if not terms:
        return {}
    first = next(iter(terms))
    d1, d2 = first[0] + first[1], sum(first[2:])
    (xs, x_position), (ys, y_position) = monomial_basis(2, d1), monomial_basis(3, d2)
    s2, s3 = sym_power(g2, d1), sym_power(g3, d2)
    moved_y: dict = {}  # the rows of C . Sym(g3), by x-monomial
    for m, c in terms.items():
        row = moved_y.setdefault(x_position[m[:2]], [0] * len(ys))
        for b, s in enumerate(s3[y_position[m[2:]]]):
            if s:
                row[b] += c * s
    out = [[0] * len(ys) for _ in xs]
    for a, row in moved_y.items():
        for target, s in zip(out, s2[a]):
            if s:
                for b, t in enumerate(row):
                    if t:
                        target[b] += s * t
    return {xs[a] + ys[b]: c for a, row in enumerate(out) for b, c in enumerate(row) if c}


def moved_form(g, poly: AffinePoly) -> AffinePoly:
    """poly(v * g) for poly in three variables: each homogeneous part moves
    through Sym^k(g) as a form of bidegree (0, k)."""
    parts: dict = {}
    for e, c in poly.terms.items():
        parts.setdefault(sum(e), {})[(0, 0) + e] = c
    moved = (moved_terms(((1, 0), (0, 1)), g, part) for part in parts.values())
    return AffinePoly(poly.vars, {m[2:]: c for terms in moved for m, c in terms.items()})


def act(g: FrameChange, f: BiPoly) -> BiPoly:
    """The substitution action (g.f)(x, y) = f(x * g2, y * g3)."""
    poly = AffinePoly(ALL_VARS)
    poly.terms = moved_terms(g.g2, g.g3, f.terms)
    return BiPoly(f.bidegree, poly)


def is_scalar_multiple(f, g) -> bool:
    """True iff g = c * f for a nonzero scalar c (f, g both BiPoly or both
    AffinePoly)."""
    if set(f.terms) != set(g.terms):
        return False
    if not f.terms:
        return True
    m0, c0 = next(iter(f.terms.items()))
    d0 = g.terms[m0]
    # g[m] / f[m] = d0 / c0, cross-multiplied
    return all(g.terms[m] * c0 == d0 * c for m, c in f.terms.items())
