"""The term-building parser against the polynomial-per-factor reference.

``bipoly._Parser`` multiplies a product's literals and variable powers into one
term and expands only parenthesized factors.  The parser it replaced built an
AffinePoly for every factor; it is kept below as the reference, and both must
give the same polynomial on seeded texts, and the same exception class and
message on malformed ones.
"""

import random
from fractions import Fraction

import pytest

from biquadric.bipoly import ALL_VARS, AffinePoly, BiPoly, ParseError, parse
from conftest import FIXTURES


class ReferenceParser:
    """The polynomial-per-factor parser that ``bipoly._Parser`` replaced:
    every literal, variable and power is an AffinePoly, and a product
    multiplies them pairwise.  Kept here as the reference only."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch):
        if self._peek() != ch:
            raise ParseError(f"expected {ch!r} at position {self.pos} in {self.text!r}")
        self.pos += 1

    def parse(self) -> AffinePoly:
        p = self.parse_sum()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"trailing input at position {self.pos} in {self.text!r}")
        return p

    def parse_sum(self) -> AffinePoly:
        if self._peek() == "+":
            self.pos += 1
        acc = AffinePoly(ALL_VARS)
        sign = 1
        while True:
            term = self.parse_product()
            acc = acc + (term if sign > 0 else -term)
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

    def parse_product(self) -> AffinePoly:
        acc = self.parse_power()
        while True:
            ch = self._peek()
            if ch == "*":
                self.pos += 1
            elif ch != "(" and not ch.isalpha():
                return acc
            # "a*b", or implicit multiplication as in "2x0" or "x0(y1+y2)"
            factor = self.parse_power()
            degrees = (acc.total_degree(), factor.total_degree())
            if min(degrees) > 0:
                self._check_degree(sum(degrees))
            acc = acc * factor

    def parse_power(self) -> AffinePoly:
        # unary minus signs bind looser than "^": "x0*-y0^2" is x0*(-(y0^2))
        sign = 1
        while self._peek() == "-":
            self.pos += 1
            sign = -sign
        base = self.parse_atom()
        if self._peek() == "^":
            self.pos += 1
            self._skip_ws()
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if start == self.pos:
                raise ParseError(f"expected exponent at position {self.pos}")
            n = int(self.text[start : self.pos])
            if base.total_degree() > 0:
                self._check_degree(base.total_degree() * n)
            base = base ** n
        return -base if sign < 0 else base

    def parse_atom(self) -> AffinePoly:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            p = self.parse_sum()
            self._expect(")")
            return p
        if ch.isalpha():
            start = self.pos
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            name = self.text[start : self.pos]
            if name not in ALL_VARS:
                raise ParseError(f"unknown variable {name!r}")
            return AffinePoly(ALL_VARS, {tuple(int(v == name) for v in ALL_VARS): 1})
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            num = int(self.text[start : self.pos])
            if self._peek() == "/":
                self.pos += 1
                self._skip_ws()
                start = self.pos
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
                if start == self.pos:
                    raise ParseError(f"expected denominator at position {self.pos}")
                den = int(self.text[start : self.pos])
                if den == 0:
                    raise ParseError(f"zero denominator at position {start}")
                return AffinePoly.constant(ALL_VARS, Fraction(num, den))
            return AffinePoly.constant(ALL_VARS, Fraction(num))
        raise ParseError(f"unexpected character {ch!r} at position {self.pos} in {self.text!r}")


def reference_parse(text: str) -> BiPoly:
    """``bipoly.parse`` with the reference parser."""
    p = ReferenceParser(text).parse()
    if p.is_zero():
        raise ValueError("the zero polynomial has no bidegree")
    degs = {(e[0] + e[1], e[2] + e[3] + e[4]) for e in p.terms}
    if len(degs) != 1:
        raise ValueError(f"polynomial is not bihomogeneous: bidegrees {sorted(degs)}")
    return BiPoly(degs.pop(), p)


def outcome(parser, text):
    try:
        return parser(text)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


def _ws(rng):
    return rng.choice(["", "", "", " ", "  ", "\t"])


def _literal(rng):
    n = str(rng.randint(0, 12))
    return n if rng.random() < 0.7 else f"{n}{_ws(rng)}/{_ws(rng)}{rng.randint(1, 9)}"


def _form(rng, a, b, depth):
    """Text of a random form of bidegree (a, b): a monomial with a literal,
    a sum, a product of two forms or a power of one, with unary minus signs,
    implicit multiplication and whitespace."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        parts = [_literal(rng)] if rng.random() < 0.6 else []
        xs = [rng.choice(ALL_VARS[:2]) for _ in range(a)]
        ys = [rng.choice(ALL_VARS[2:]) for _ in range(b)]
        parts += xs + ys
        if rng.random() < 0.3 and len(parts) > 1:
            v = parts.pop()  # a variable squared as a power
            if v in parts and not v[0].isdigit():
                parts.remove(v)
                parts.append(f"{v}{_ws(rng)}^{_ws(rng)}2")
            else:
                parts.append(v)
        text = _join(rng, parts or ["1"])
    elif r < 0.55:
        op = rng.choice([" + ", " - ", "+", "-", " + -", "- -"])
        text = _form(rng, a, b, depth - 1) + op + _form(rng, a, b, depth - 1)
    elif r < 0.85 and a + b > 1:
        a1, b1 = rng.randint(0, a), rng.randint(0, b)
        left = "(" + _form(rng, a1, b1, depth - 1) + ")"
        right = "(" + _form(rng, a - a1, b - b1, depth - 1) + ")"
        text = _join(rng, [left, right])
    elif a % 2 == 0 and b % 2 == 0 and a + b:
        text = "(" + _form(rng, a // 2, b // 2, depth - 1) + f"){_ws(rng)}^{_ws(rng)}2"
    else:
        text = _form(rng, a, b, 0)
    if rng.random() < 0.15:
        text = "-" * rng.randint(1, 2) + _ws(rng) + text
    return text


def _join(rng, factors):
    """Factors joined by "*" or, before a letter or "(", by nothing."""
    out = factors[0]
    for f in factors[1:]:
        implicit = f[0].isalpha() or f[0] == "("
        sep = rng.choice(["", " ", "*", " * "]) if implicit else rng.choice(["*", " *", "* "])
        out += sep + f
    return out


def seeded_texts(n, seed):
    rng = random.Random(seed)
    texts = []
    for _ in range(n):
        a, b = rng.choice([(2, 2), (2, 2), (2, 2), (1, 1), (2, 1), (0, 2), (1, 0)])
        texts.append(_form(rng, a, b, rng.randint(0, 3)))
    return texts


def _mutations(text, rng):
    """The text with one character dropped, replaced or inserted, or cut."""
    i = rng.randrange(len(text) + 1)
    ch = rng.choice("()*^/+-x0y2 9z.")
    return [text[:i] + text[i + 1:], text[:i] + ch + text[i + 1:], text[:i] + ch + text[i:], text[:i]]


VALID = seeded_texts(300, "parse-valid")


@pytest.mark.parametrize("chunk", range(3))
def test_seeded_texts_parse_alike(chunk):
    for text in VALID[chunk::3]:
        assert outcome(parse, text) == outcome(reference_parse, text), text


def test_seeded_texts_are_mostly_forms():
    # the generator exercises the parser, not only its error paths
    parsed = [outcome(parse, text) for text in VALID]
    assert sum(isinstance(p, BiPoly) for p in parsed) >= 250
    assert sum(isinstance(p, BiPoly) and p.bidegree == (2, 2) for p in parsed) >= 100


def test_expanded_and_factored_forms_parse_alike():
    rng = random.Random("parse-expanded")
    texts = list(FIXTURES.values())
    forms = [f for f in map(lambda t: outcome(reference_parse, t), VALID[:60] + texts)
             if isinstance(f, BiPoly)]
    for f in rng.sample(forms, 40):
        texts.append(repr(f))
        texts.append(repr(f * Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))))
    for text in texts:
        assert outcome(parse, text) == outcome(reference_parse, text), text


def test_malformed_texts_fail_alike():
    rng = random.Random("parse-malformed")
    texts = [m for text in VALID[:150] for m in _mutations(text, rng)]
    texts += [
        "", "   ", "+", "-", "x0^", "x0^-1", "2/", "2/0*x0^2*y0^2", "x0^2*(y0", "x0^2*y0^2)",
        "x3^2*y0^2", "z", "x0^2*y0^2 + x0*y0", "x0*x0*x0*y0*y0", "x0^3*y0^2", "(x0+y0)^5",
        "(x0+x1+y0+y1+y2)^20", "x0^2*(y0+y1)^3", "0*x0^5", "0*x0^3*x0^3", "(x0-x0)^9*y0",
        "x0^2 y0^2", "x0 2", "2x0^2y0^2", "x0(x1)(y0+y1)(y2)", "x0*-y0^2*x1*y1", "--x0^2*y0^2",
        "1/2/3*x0^2*y0^2", "x0^2*y0^2 +", "x0^2*y0^2 - - - x1^2*y1^2", "x0^0*x0^2*y0^2",
        "(x0^2*y0^2)^0", "0", "x0*y0 - x0*y0", "x0*y0", "x0^2*y0^2 + 1/0",
    ]
    different = [t for t in texts if outcome(parse, t) != outcome(reference_parse, t)]
    assert different == []
    errors = [outcome(parse, t) for t in texts]
    assert sum(isinstance(e, tuple) and e[0] is ParseError for e in errors) >= 100
    assert any(isinstance(e, tuple) and e[1].startswith("product of total degree") for e in errors)


@pytest.mark.parametrize("text", [
    "x0^2*(y0", "1/0*x0^2*y0^2", "(x0+x1+y0+y1+y2)^20", "x0*y0",
])
def test_cli_exit_2_texts_fail_alike(text):
    # the texts among tests/test_cli.py's exit-2 cases, read as cli.read_poly
    # reads them, so the bidegree check counts too
    def read(parser):
        return outcome(lambda t: BiPoly((2, 2), parser(t).poly), text)

    assert read(parse) == read(reference_parse)
    assert read(parse)[0] in (ParseError, ValueError)
