"""Polynomial input parsing and rendering.

Accepted forms:

* expanded or factored expressions: "x^3 - 2*x + 1", "(x-1)^2*(x+2)",
  with integer or rational literals, `i` for the imaginary unit and `^`
  or `**` for powers;
* JSON: {"coeffs": [[re_num, re_den, im_num, im_den], ...]}, lowest
  degree first.

The result is always an ExactPoly. Text is cut into tokens by one regular
expression (`_TOKEN`). An integer literal is read as an int, and a literal
with a decimal point as the exact Fraction it denotes: 0.3 is 3/10, so
"(x-0.3)^6" and "(x-3/10)^6" are the same polynomial. A recursive descent
(`_Parser`) then builds the value on ExactPoly arithmetic; `x` and `i` are
shared atoms, and a division by a constant is one exact scaling
(`ExactPoly.__floordiv__`). Exponents must be integer literals without a
decimal point, and a power may not exceed `MAX_POWER_DEGREE` or
`MAX_POWER_BITS` (`_power`). An error message quotes at most
`_QUOTE_CHARS` characters of a token, with the token's length.
"""
from __future__ import annotations

import json
import math
import re
from collections import namedtuple
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


#: one token: a number (decimal digits with at most one point), a name (a run
#: of word characters other than decimal digits and "_": letters, or numeric
#: characters such as "²", which `_tokenize` rejects), an operator, or a run
#: of whitespace, which is skipped
_TOKEN = re.compile(r"(\d+(?:\.\d*)?|\.\d+)|([^\W\d_]+)|(\*\*|[-+*/^()])|\s+")

#: `value` is a number token's value, an int, or a Fraction for a literal
#: with a decimal point; None for any other token
_Token = namedtuple("_Token", "kind text pos value")

#: the atoms `x` and `i`, shared by every parse
_X = ExactPoly.x()
_I = ExactPoly(((0, 1),))

#: the most characters of a token an error message quotes
_QUOTE_CHARS = 40


def _quote(text: str) -> str:
    """`text` as an error message quotes it: whole when short, else its first
    `_QUOTE_CHARS` characters and its length."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}... ({len(text)} characters)"


def _tokenize(text: str) -> list[_Token]:
    out = []
    append = out.append
    match = _TOKEN.match
    # tuple.__new__ builds a _Token without the Python call of its __new__
    new = tuple.__new__
    n = len(text)
    i = 0
    while i < n:
        m = match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        kind = m.lastindex
        j = m.end()
        if kind == 3:
            append(new(_Token, ("op", "^" if j - i == 2 else text[i], i, None)))
        elif kind == 1:
            lit = text[i:j]
            # a digit that is not a decimal digit, such as a superscript,
            # continues the literal and makes it unreadable
            if j < n and text[j].isdigit():
                raise ParseError(f"bad numeric literal {_quote(text[i:j + 1])}", i)
            try:
                value = Fraction(lit) if "." in lit else int(lit)
            except ValueError:  # more digits than int() reads
                raise ParseError(f"bad numeric literal {_quote(lit)}", i)
            append(new(_Token, ("number", lit, i, value)))
        elif kind == 2:
            name = text[i:j]
            if not name.isalpha():
                # the run holds a numeric character that is not a letter
                k = i + next(k for k, c in enumerate(name) if not c.isalpha())
                raise ParseError(f"unexpected character {text[k]!r}", k)
            append(new(_Token, ("name", name, i, None)))
        i = j
    append(new(_Token, ("end", "", n, None)))
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
            raise ParseError(f"unexpected trailing input {_quote(t.text)}", t.pos)
        return p

    # expr, term, factor and atom read the tokens in place, an operator by
    # its text alone: no name or number is spelled like one

    def expr(self) -> ExactPoly:
        """A sum of terms, added up once (`ExactPoly.sum_of`)."""
        tokens = self.tokens
        terms = []
        sign = tokens[self.idx].text
        if sign == "+" or sign == "-":
            self.idx += 1
        while True:
            rhs = self.term()
            terms.append(-rhs if sign == "-" else rhs)
            sign = tokens[self.idx].text
            if sign != "+" and sign != "-":
                return terms[0] if len(terms) == 1 else ExactPoly.sum_of(terms)
            self.idx += 1

    def term(self) -> ExactPoly:
        tokens = self.tokens
        acc = self.factor()
        while True:
            t = tokens[self.idx]
            op = t.text
            if op == "*":
                self.idx += 1
                acc = acc * self.factor()
            elif op == "/":
                self.idx += 1
                pos = tokens[self.idx].pos
                divisor = self.factor()
                if divisor.is_zero:
                    raise ParseError("division by zero", pos)
                if len(divisor.nums) > 1:
                    raise ParseError("division by a non-constant polynomial", pos)
                acc = acc // divisor
            elif op == "(" or t.kind == "name":
                # implicit multiplication: 2x, 3(x-1), x(x+2); two adjacent
                # number literals stay a syntax error
                acc = acc * self.factor()
            else:
                return acc

    def factor(self) -> ExactPoly:
        base = self.atom()
        tokens = self.tokens
        if tokens[self.idx].text != "^":
            return base
        self.idx += 1
        pos = tokens[self.idx].pos
        e = self.exponent()
        if not base.is_zero:
            if base.degree * e > MAX_POWER_DEGREE:
                raise ParseError(f"power of degree {base.degree * e} exceeds {MAX_POWER_DEGREE}", pos)
            # x^e needs no bits
            if base != _X and _power_bits(base, e) > MAX_POWER_BITS:
                raise ParseError(f"power needs more than {MAX_POWER_BITS} bits per coefficient", pos)
        return _power(base, e)

    def exponent(self) -> int:
        t = self.take()
        neg = False
        if t.kind == "op" and t.text in "+-":
            neg = t.text == "-"
            t = self.take()
        if t.kind != "number" or type(t.value) is not int:
            raise ParseError("exponent must be an integer literal", t.pos)
        if neg:
            raise ParseError("negative exponents are not polynomial", t.pos)
        return t.value

    def atom(self) -> ExactPoly:
        t = self.tokens[self.idx]
        self.idx += 1
        kind = t.kind
        if kind == "number":
            q = t.value
            return ExactPoly(((q.numerator, 0),), q.denominator) if q else ExactPoly.zero()
        if kind == "name":
            name = t.text.lower()
            if name == "x":
                return _X
            if name == "i":
                return _I
            raise ParseError(f"unknown name {_quote(t.text)}", t.pos)
        if t.text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if t.kind == "op" and t.text in "+-":
            inner = self.factor()
            return -inner if t.text == "-" else inner
        raise ParseError(f"unexpected token {_quote(t.text)}", t.pos)


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
    if base == _X:
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
