"""Polynomial input parsing and rendering.

Accepted forms:

* expanded or factored expressions: "x^3 - 2*x + 1", "(x-1)^2*(x+2)",
  with integer or rational literals, `i` for the imaginary unit and `^`
  or `**` for powers;
* JSON: {"coeffs": [[re_num, re_den, im_num, im_den], ...]}, lowest
  degree first.

The result is always an ExactPoly. A decimal literal is read as the exact
rational it denotes: 0.3 is 3/10, so "(x-0.3)^6" and "(x-3/10)^6" are the same
polynomial. Exponents must be integer literals without a decimal point, and
a power may not exceed `MAX_POWER_DEGREE` or `MAX_POWER_BITS` (`_power`).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .gaussian import GR_ONE, GaussianRational
from .poly import ExactPoly

#: the largest degree a power may have: far above the degrees root finding
#: certifies in seconds (64); with `MAX_POWER_BITS`, expanding the largest
#: legal power, (x + 2^19)^1000, takes about 3 s
MAX_POWER_DEGREE = 1000

#: the most bits a power's coefficients may need (see `_power_bits`): 30
#: times the 665 bits of 10^200, the largest constant of the examples
MAX_POWER_BITS = 20_000


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int
    value: Fraction | None = None
    decimal: bool = False


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            seen_dot = False
            while i < n and (text[i].isdigit() or (text[i] == "." and not seen_dot)):
                if text[i] == ".":
                    seen_dot = True
                i += 1
            lit = text[start:i]
            try:
                value = Fraction(lit)
            except ValueError:
                raise ParseError(f"bad numeric literal {lit!r}", start)
            out.append(_Token("number", lit, start, value, seen_dot))
            continue
        if c.isalpha():
            start = i
            while i < n and text[i].isalpha():
                i += 1
            out.append(_Token("name", text[start:i], start))
            continue
        if c == "*" and i + 1 < n and text[i + 1] == "*":
            out.append(_Token("op", "^", i))
            i += 2
            continue
        if c in "+-*/^()":
            out.append(_Token("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    """Recursive descent over polynomial values with exact coefficients."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def take(self) -> _Token:
        t = self.tokens[self.idx]
        self.idx += 1
        return t

    def expect_op(self, op: str) -> None:
        t = self.take()
        if t.kind != "op" or t.text != op:
            raise ParseError(f"expected {op!r}", t.pos)

    def parse(self) -> ExactPoly:
        p = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected trailing input {t.text!r}", t.pos)
        return p

    def expr(self) -> ExactPoly:
        """A sum of terms, added up once (`ExactPoly.sum_of`)."""
        terms = []
        t = self.peek()
        if t.kind == "op" and t.text in "+-":
            self.take()
        else:
            t = None
        while True:
            rhs = self.term()
            terms.append(-rhs if t is not None and t.text == "-" else rhs)
            t = self.peek()
            if t.kind != "op" or t.text not in "+-":
                return ExactPoly.sum_of(terms)
            self.take()

    def term(self) -> ExactPoly:
        acc = self.factor()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text == "*":
                self.take()
                acc = acc * self.factor()
            elif t.kind == "op" and t.text == "/":
                self.take()
                pos = self.peek().pos
                divisor = self.factor()
                if divisor.is_zero:
                    raise ParseError("division by zero", pos)
                if divisor.degree > 0:
                    raise ParseError("division by a non-constant polynomial", pos)
                acc = acc // divisor
            elif t.kind == "name" or (t.kind == "op" and t.text == "("):
                # implicit multiplication: 2x, 3(x-1), x(x+2); two adjacent
                # number literals stay a syntax error
                acc = acc * self.factor()
            else:
                return acc

    def factor(self) -> ExactPoly:
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.take()
            pos = self.peek().pos
            e = self.exponent()
            if not base.is_zero:
                if base.degree * e > MAX_POWER_DEGREE:
                    raise ParseError(f"power of degree {base.degree * e} exceeds {MAX_POWER_DEGREE}", pos)
                if _power_bits(base, e) > MAX_POWER_BITS:
                    raise ParseError(f"power needs more than {MAX_POWER_BITS} bits per coefficient", pos)
            return _power(base, e)
        return base

    def exponent(self) -> int:
        t = self.take()
        neg = False
        if t.kind == "op" and t.text in "+-":
            neg = t.text == "-"
            t = self.take()
        if t.kind != "number" or t.decimal or t.value.denominator != 1:
            raise ParseError("exponent must be an integer literal", t.pos)
        if neg:
            raise ParseError("negative exponents are not polynomial", t.pos)
        return int(t.value)

    def atom(self) -> ExactPoly:
        t = self.take()
        if t.kind == "number":
            q = t.value
            return ExactPoly(((q.numerator, 0),), q.denominator) if q else ExactPoly.zero()
        if t.kind == "name":
            name = t.text.lower()
            if name == "x":
                return ExactPoly.x()
            if name == "i":
                return ExactPoly(((0, 1),))
            raise ParseError(f"unknown name {t.text!r}", t.pos)
        if t.kind == "op" and t.text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if t.kind == "op" and t.text in "+-":
            inner = self.factor()
            return -inner if t.text == "-" else inner
        raise ParseError(f"unexpected token {t.text!r}", t.pos)


def _power_bits(base: ExactPoly, e: int) -> float:
    """A bound B such that every numerator of base^e, and its denominator,
    is at most 2^B in modulus: e log2 of the larger of base's denominator
    and the sum of |re| + |im| over its numerators. That log2 is 0 or at
    least 1, so an e above MAX_POWER_BITS counts as MAX_POWER_BITS + 1,
    which keeps a huge e from overflowing the float."""
    total = sum(abs(re) + abs(im) for re, im in base.nums)
    return min(e, MAX_POWER_BITS + 1) * math.log2(max(total, base.den))


def _power(base: ExactPoly, e: int) -> ExactPoly:
    """base^e: x^e as its monomial, other bases by repeated squaring."""
    if base == ExactPoly.x():
        return ExactPoly(((0, 0),) * e + ((1, 0),))
    acc = ExactPoly.constant(1)
    while e:
        if e & 1:
            acc = acc * base
        e >>= 1
        if e:
            base = base * base
    return acc


def _poly_from_json(data) -> ExactPoly:
    if not isinstance(data, dict) or "coeffs" not in data:
        raise ParseError('polynomial JSON must be an object with a "coeffs" key')
    if not isinstance(data["coeffs"], list):
        raise ParseError('"coeffs" must be a list of coefficients')
    coeffs = []
    for idx, entry in enumerate(data["coeffs"]):
        # bool is an int subclass, but JSON true/false are not integers
        if not isinstance(entry, list) or len(entry) != 4 or any(type(x) is not int for x in entry):
            raise ParseError(
                f"coefficient {idx} must be four integers [re_num, re_den, im_num, im_den]"
            )
        ren, red, imn, imd = entry
        if red == 0 or imd == 0:
            raise ParseError(f"coefficient {idx} has a zero denominator")
        coeffs.append(GaussianRational(Fraction(ren, red), Fraction(imn, imd)))
    return ExactPoly.from_coeffs(coeffs)


def parse_polynomial(text: str) -> ExactPoly:
    """Parse expanded, factored or JSON coefficient input into an exact
    polynomial; a decimal literal is read as its exact rational."""
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(f"polynomial JSON is malformed: {exc.msg}", exc.pos)
        return _poly_from_json(data)
    return _Parser(stripped).parse()


def _frac_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _coeff_str(c: GaussianRational) -> str:
    if c.im == 0:
        q = c.re
        if q < 0:
            return f"({_frac_str(q)})"
        return _frac_str(q)
    re_part = _frac_str(c.re)
    im_sign = "+" if c.im >= 0 else "-"
    im_part = _frac_str(abs(c.im))
    return f"({re_part}{im_sign}{im_part}*i)"


def render_exact_poly(p: ExactPoly) -> str:
    """Canonical text form, reparseable to the identical polynomial."""
    if p.is_zero:
        return "0"
    terms = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c.is_zero:
            continue
        if k == 0:
            terms.append(_coeff_str(c))
        else:
            xpow = "x" if k == 1 else f"x^{k}"
            if c == GR_ONE:
                terms.append(xpow)
            else:
                terms.append(f"{_coeff_str(c)}*{xpow}")
    return " + ".join(terms)


def poly_to_json(p: ExactPoly) -> dict:
    return {
        "coeffs": [
            [
                c.re.numerator,
                c.re.denominator,
                c.im.numerator,
                c.im.denominator,
            ]
            for c in p.coeffs
        ]
    }
